package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("packets")
	c.Add(3)
	r.Counter("packets").Add(2) // same instance on re-lookup
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("alpha")
	g.Set(0.25)
	if got := r.Gauge("alpha").Value(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket [64µs, 128µs)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond) // bucket [4096µs, 8192µs)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 != 128*time.Microsecond {
		t.Fatalf("p50 = %v, want 128µs bucket edge", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 8192*time.Microsecond {
		t.Fatalf("p99 = %v, want 8192µs bucket edge", p99)
	}
	if mean := h.Mean(); mean < 400*time.Microsecond || mean > 800*time.Microsecond {
		t.Fatalf("mean = %v, want ≈ 590µs", mean)
	}
}

func TestHistogramP95Snapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 94 fast + 6 slow: p50 in the fast bucket, p95 and p99 in the slow.
	for i := 0; i < 94; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 6; i++ {
		h.Observe(5 * time.Millisecond)
	}
	snap := r.Snapshot()
	if got := snap["lat.p50_us"]; got != 128 {
		t.Fatalf("p50_us = %v, want 128", got)
	}
	if got := snap["lat.p95_us"]; got != 8192 {
		t.Fatalf("p95_us = %v, want 8192", got)
	}
	if got := snap["lat.p99_us"]; got != 8192 {
		t.Fatalf("p99_us = %v, want 8192", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 60; i++ {
		a.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 40; i++ {
		b.Observe(5 * time.Millisecond)
	}
	var all Histogram
	all.Merge(&a)
	all.Merge(&b)
	all.Merge(nil) // no-op
	if all.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", all.Count())
	}
	if p50 := all.Quantile(0.50); p50 != 128*time.Microsecond {
		t.Fatalf("merged p50 = %v, want the fast bucket edge", p50)
	}
	if p99 := all.Quantile(0.99); p99 != 8192*time.Microsecond {
		t.Fatalf("merged p99 = %v, want the slow bucket edge", p99)
	}
	// The merge must sum means too, not just bucket counts.
	want := (60*100 + 40*5000) / 100
	if mean := all.Mean(); mean != time.Duration(want)*time.Microsecond {
		t.Fatalf("merged mean = %v, want %dµs", mean, want)
	}
}

// TestRemove pins exact-name removal: the named entries go, every
// other entry — including ones sharing their prefix — keeps its
// identity and value, and unknown names are ignored.
func TestRemove(t *testing.T) {
	r := NewRegistry()
	r.Counter("s1.frames").Add(1)
	r.Gauge("s1.alpha").Set(0.5)
	r.Counter("s1.frames_extra").Add(2)
	r.Counter("s10.frames").Add(3)
	r.Histogram("s2.lat").Observe(time.Millisecond)
	keep := r.Counter("server.sessions")
	keep.Add(4)
	before := r.Snapshot()

	if n := r.Remove("s1.frames", "s1.alpha", "s1.missing"); n != 2 {
		t.Fatalf("removed %d metrics, want 2", n)
	}
	after := r.Snapshot()
	for _, gone := range []string{"s1.frames", "s1.alpha"} {
		if _, ok := after[gone]; ok {
			t.Errorf("%s survived Remove", gone)
		}
	}
	if len(after) != len(before)-2 {
		t.Fatalf("snapshot has %d entries after removing 2 of %d", len(after), len(before))
	}
	for name, v := range after {
		if before[name] != v {
			t.Errorf("%s = %v after Remove, want untouched %v", name, v, before[name])
		}
	}
	// Survivors keep their identity: re-registering returns the same
	// live object, not a fresh zero metric.
	if r.Counter("server.sessions") != keep || keep.Value() != 4 {
		t.Error("server.sessions was replaced by Remove")
	}
}

// BenchmarkRemoveSession times one session's teardown — eleven exact
// names — against registries holding 1k and 100k other live entries.
// Exact-name removal is O(own metrics), so ns/op must stay flat across
// the two sizes (the prefix scan it replaced grew linearly).
func BenchmarkRemoveSession(b *testing.B) {
	suffixes := []string{"frames_encoded", "packets_sent", "bytes_sent", "queue_dropped_frames",
		"reports", "intra_mbs", "alpha_hat", "intra_th", "queue_depth", "energy_joules", "spare"}
	for _, live := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			r := NewRegistry()
			for i := 0; i < live; i++ {
				r.Counter(fmt.Sprintf("bg%d.frames", i))
			}
			names := make([]string, len(suffixes))
			for i, s := range suffixes {
				names[i] = "s0." + s
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, n := range names {
					r.Counter(n)
				}
				b.StartTimer()
				r.Remove(names...)
			}
		})
	}
}

func TestServeHTTPValidSortedJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Gauge("a.level").Set(1.5)
	r.Histogram("lat").Observe(time.Millisecond)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var decoded map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("endpoint emitted invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if decoded["b.count"] != 7 || decoded["a.level"] != 1.5 {
		t.Fatalf("unexpected values: %v", decoded)
	}
	if decoded["lat.count"] != 1 {
		t.Fatalf("histogram not expanded: %v", decoded)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("hits").Add(1)
				r.Gauge("depth").Set(float64(i))
				r.Histogram("lat").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 2000 {
		t.Fatalf("hits = %d, want 2000", got)
	}
}
