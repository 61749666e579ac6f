// Command perfbench is the repository benchmark. One invocation runs
// one named workload for a fixed time, checks the workload's outputs,
// and prints every metric by name with its unit; the last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
//	perfbench --workload fig5-mc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics that
// BENCHMARK.json gates; with --trace 1 they are the per-layer metrics,
// measured from spans the benchmark records around its own calls into
// each layer, plus the tracing overhead. The span tree of a traced run
// is written to .bench_build/traces/. See README.md for the workloads
// and for which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// gatedE2E are the end-to-end metrics BENCHMARK.json lists: the ones
// every workload defines, that are never zero and that repeat closely
// enough between runs to hold a bound. The others (wall_s, slip,
// slo_rate, peak_goodput_fps, fail_frac) print on the e2e lines
// before the result line; README.md says why each is left out.
var gatedE2E = []string{"setup_s", "cpu_s", "max_rss_mb"}

// layerMetrics is the per-layer metric list of BENCHMARK.json, in
// order. A traced run prints each one; a layer the workload never
// calls reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"experiment.encode_ms_per_frame", "ms"},
	{"experiment.encode_share", "frac"},
	{"experiment.simbatch_share", "frac"},
	{"motion.sad_ops_per_frame", "count"},
	{"core.intra_mb_frac", "frac"},
	{"bitcache.hit_frac", "frac"},
	{"experiment.simbatch_us_per_lane_frame", "us"},
	{"experiment.lanes_per_decode", "count"},
	{"experiment.parsed_frames", "count"},
	{"experiment.batch_forks", "count"},
	{"experiment.batch_merges", "count"},
	{"experiment.max_live_groups", "count"},
	{"conceal.busy_share", "frac"},
	{"conceal.calls_per_lane_frame", "count"},
	{"analytic.extract_ms", "ms"},
	{"analytic.evaluate_us", "us"},
	{"parallel.utilization", "frac"},
	{"serve.new_ms", "ms"},
	{"serve.shutdown_ms", "ms"},
	{"serve.session_ms_p50", "ms"},
	{"serve.session_ms_p99", "ms"},
	{"serve.send_path_ms_p50", "ms"},
	{"serve.send_path_ms_p99", "ms"},
	{"serve.frame_latency_mean_ms", "ms"},
	{"serve.encode_latency_mean_ms", "ms"},
	{"serve.encodes_per_frame", "count"},
	{"network.datagrams_per_recv", "count"},
	{"serve.loadshed_deferrals", "count"},
	{"serve.loadshed_rejects", "count"},
	{"serve.sessions_rejected", "count"},
	{"serve.feedback_dropped", "count"},
	{"serve.lineage_forks", "count"},
	{"serve.lineage_merges", "count"},
	{"serve.sessions_active_peak", "count"},
	{"serve.shard_rx_balance", "frac"},
	{"obs.registry_entries_peak", "count"},
	{"obs.snapshot_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"self_ms.cell", "ms"},
	{"self_ms.experiment.Encode", "ms"},
	{"self_ms.experiment.SimBatch", "ms"},
	{"self_ms.experiment.ExtractModel", "ms"},
	{"self_ms.experiment.AnalyzeModel", "ms"},
	{"self_ms.step", "ms"},
	{"self_ms.serve.New", "ms"},
	{"self_ms.serve.RunClient", "ms"},
	{"self_ms.serve.Shutdown", "ms"},
	{"self_ms.obs.Snapshot", "ms"},
	{"trace.overhead_frac", "frac"},
}

// selfSpanNames are the span names whose self time the traced run
// reports as self_ms.<name>, summed over the run.
var selfSpanNames = []string{
	"cell", "experiment.Encode", "experiment.SimBatch", "experiment.ExtractModel",
	"experiment.AnalyzeModel", "step", "serve.New", "serve.RunClient", "serve.Shutdown", "obs.Snapshot",
}

type opts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tracer   *Tracer // nil unless trace
}

var workloads = map[string]func(o opts, rep *report) error{
	"fig5-mc":        func(o opts, rep *report) error { return runOffline(o, newFig5(o.seed), fig5Frames, rep) },
	"sweep-analytic": func(o opts, rep *report) error { return runOffline(o, newSweep(o.seed), sweepFrames, rep) },
	"serve-fanout":   func(o opts, rep *report) error { return runServing(o, fanoutProfile, rep) },
	"serve-forked":   func(o opts, rep *report) error { return runServing(o, forkedProfile, rep) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, failures and notes.
type report struct {
	E2E       map[string]metric
	Layer     map[string]metric
	Attempted int
	Failed    int
	Failures  []string
	Notes     []string
	Invalid   string // non-empty when the run's measurements cannot be trusted
}

func (r *report) e2e(name string, v float64, unit string)   { r.E2E[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.Layer[name] = metric{v, unit} }
func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation or output check.
func (r *report) fail(msg string) {
	r.Failed++
	r.Failures = append(r.Failures, msg)
}

// correct reports whether every output check passed. Rejected serving
// sessions count in Failed but are not wrong output.
func (r *report) correct() bool { return len(r.Failures) == 0 }

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: fig5-mc, sweep-analytic, serve-fanout or serve-forked")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 12, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if o.trace {
		o.tracer = newTracer()
	}
	printEnv(o)

	rep := &report{E2E: map[string]metric{}, Layer: map[string]metric{}}
	root := o.tracer.Begin(o.workload, 0)
	err := w(o, rep)
	o.tracer.End(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		reportSelfTimes(rep, o.tracer)
		path, err := writeTrace(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.note("spans: %d written to %s", len(o.tracer.Spans()), path)
	}
	printReport(o, rep)
	if rep.Invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: run INVALID, not reported: %s\n", rep.Invalid)
		return 3
	}
	if err := printResult(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printEnv records the run environment.
func printEnv(o opts) {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Printf("env %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision stamped into the binary, which go
// build records when it runs inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printReport(o opts, rep *report) {
	for _, n := range rep.Notes {
		fmt.Printf("note %s\n", n)
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAIL %s\n", f)
	}
	printMetrics("e2e", rep.E2E)
	if o.trace {
		printMetrics("layer", rep.Layer)
	}
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-40s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// printResult prints the final JSON line.
func printResult(o opts, rep *report) error {
	out := map[string]metric{}
	if o.trace {
		for _, m := range layerMetrics {
			v := rep.Layer[m.name].Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("layer metric %s is %v", m.name, v)
			}
			out[m.name] = metric{v, m.unit}
		}
	} else {
		for _, n := range gatedE2E {
			m, ok := rep.E2E[n]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				return fmt.Errorf("end-to-end metric %s missing or not positive: %v", n, m.Value)
			}
			out[n] = m
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func reportSelfTimes(rep *report, tr *Tracer) {
	lt := selfTimes(tr.Spans())
	for _, n := range selfSpanNames {
		rep.layer("self_ms."+n, float64(lt[n].Self)/1e6, "ms")
	}
}

// writeTrace writes the span tree under .bench_build/traces in the
// working directory.
func writeTrace(o opts) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := o.tracer.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Set-up repetitions: serve.New takes well under a millisecond, so
// the serving workloads repeat it more to steady the median.
const (
	offlineSetupReps = 15
	servingSetupReps = 41
)

// timeSetup runs fn reps times and returns the median seconds.
func timeSetup(reps int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rng is splitmix64: the benchmark's only source of randomness, so a
// seed fixes every generated input.
type rng struct{ state uint64 }

func splitmix64(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
