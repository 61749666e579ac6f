// Package obs is the repository's small observability layer: named
// counters, gauges and latency histograms collected in a Registry and
// exported as JSON over HTTP (the role expvar plays in larger
// systems, kept in-tree so the metric set stays typed and testable).
//
// All metric mutations are lock-free atomics, safe from any goroutine;
// the registry lock is taken only on metric registration, snapshot and
// removal — never on the hot path. The serving layer registers
// per-session metrics under a "s<id>." prefix and removes them by name
// when the session ends, so a long-lived server's registry stays bounded by
// its concurrent-session cap, not its lifetime session count.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 level (a value that can go
// up and down: queue depth, α̂, Intra_Th).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current level.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts observations in [2^i, 2^(i+1)) microseconds, bucket 0 also
// absorbs sub-microsecond values. 2^39 µs ≈ 6.4 days caps the range.
const histBuckets = 40

// Histogram is a fixed power-of-two-bucket latency histogram. All
// methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveValue(d.Microseconds())
}

// ObserveValue records one dimensionless value (a batch size, a queue
// depth sample) into the same power-of-two buckets. A histogram fed
// through ObserveValue exports the usual count/mean_us/p50_us/p95_us/
// p99_us snapshot fields; consumers read the _us-suffixed ones as
// plain units
// (the suffix names the field, not the quantity).
func (h *Histogram) ObserveValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sumUS.Add(v)
	b := 0
	for x := v; x > 1 && b < histBuckets-1; x >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumUS.Load()/n) * time.Microsecond
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]):
// the upper edge of the bucket containing it. Bucket edges are powers
// of two, so the bound is within 2x of the true value.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			return time.Duration(uint64(1)<<uint(i+1)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<histBuckets) * time.Microsecond
}

// Merge folds another histogram's observations into h (bucket-wise
// sums). Reads and adds are individually atomic but the merge is not a
// consistent cut; callers merge quiescent histograms (a finished
// client's latency record into a run aggregate), where that is exact.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.count.Add(other.count.Load())
	h.sumUS.Add(other.sumUS.Load())
	for i := range h.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Registry is a named collection of metrics.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on
// first use. It panics if name is already registered as another kind —
// metric names are code-chosen constants, so a clash is a programming
// error, not an input error.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return register(r, name, func() *Histogram { return &Histogram{} })
}

func register[T any](r *Registry, name string, make func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return t
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Remove unregisters the named metrics and returns how many were
// registered. Each name is one map delete under the lock, so tearing
// down an owner's metrics costs O(its own metrics), independent of how
// many other entries are live. The serving layer calls this with a
// session's exact metric names as the session ends, so the registry
// stays bounded by the concurrent-session cap.
func (r *Registry) Remove(names ...string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, name := range names {
		if _, ok := r.metrics[name]; ok {
			delete(r.metrics, name)
			n++
		}
	}
	return n
}

// namedMetric is one entry of a collected metric table.
type namedMetric struct {
	name   string
	metric any
}

// collect copies the name→metric table under the registry lock. The
// returned slice references the live metric objects, whose reads are
// all atomic — so value reading happens outside the lock.
func (r *Registry) collect() []namedMetric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]namedMetric, 0, len(r.metrics))
	for name, m := range r.metrics {
		out = append(out, namedMetric{name, m})
	}
	return out
}

// snapshotValues reads every collected metric into the flat snapshot
// form. It takes no locks: metric reads are atomics, and the slice is
// a private copy of the table. Keeping this phase lock-free is what
// stops a slow metrics scrape (thousands of per-session metrics, each
// histogram a 40-bucket quantile walk) from stalling registration and
// removal on the serving layer's session start/finish path.
func snapshotValues(ms []namedMetric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, nm := range ms {
		switch m := nm.metric.(type) {
		case *Counter:
			out[nm.name] = float64(m.Value())
		case *Gauge:
			out[nm.name] = m.Value()
		case *Histogram:
			out[nm.name+".count"] = float64(m.Count())
			out[nm.name+".mean_us"] = float64(m.Mean().Microseconds())
			out[nm.name+".p50_us"] = float64(m.Quantile(0.50).Microseconds())
			out[nm.name+".p95_us"] = float64(m.Quantile(0.95).Microseconds())
			out[nm.name+".p99_us"] = float64(m.Quantile(0.99).Microseconds())
		}
	}
	return out
}

// Snapshot returns a point-in-time flat view of every metric, with
// histograms expanded into count/mean_us/p50_us/p95_us/p99_us fields. The
// registry lock is held only while copying the metric table, never
// while reading values (copy-on-read — see snapshotValues), so the
// observability endpoint cannot stall metric registration no matter
// how many sessions are live. Values are read per metric without a
// global atomic cut, exactly as before.
func (r *Registry) Snapshot() map[string]float64 {
	return snapshotValues(r.collect())
}

// ServeHTTP implements http.Handler: the snapshot as a sorted,
// indented JSON object — the server's observability endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", "application/json")
	// Hand-rolled object so keys stay sorted (encoding/json sorts map
	// keys too, but building explicitly keeps float formatting stable).
	fmt.Fprintln(w, "{")
	for i, k := range keys {
		comma := ","
		if i == len(keys)-1 {
			comma = ""
		}
		kb, _ := json.Marshal(k)
		fmt.Fprintf(w, "  %s: %s%s\n", kb, formatValue(snap[k]), comma)
	}
	fmt.Fprintln(w, "}")
}

// formatValue renders integral values without an exponent or trailing
// zeros so counters read naturally.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
