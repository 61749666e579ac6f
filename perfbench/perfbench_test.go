package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..200
	}
	for _, tc := range []struct {
		permille   int
		want       float64
		wantBeyond int
	}{
		{500, 100, 100},
		{950, 190, 10},
		{990, 198, 2},
		{999, 200, 0},
	} {
		v, beyond := percentile(xs, tc.permille)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("p%d = %v (%d beyond), want %v (%d beyond)", tc.permille, v, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, _ := percentile(nil, 500); !math.IsNaN(v) {
		t.Errorf("empty percentile = %v, want NaN", v)
	}
	if v, beyond := percentile([]float64{7}, 990); v != 7 || beyond != 0 {
		t.Errorf("single-sample p99 = %v (%d beyond)", v, beyond)
	}
}

func TestTailRulePicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{10000, 999, true}, // 10 beyond p99.9
		{9999, 990, true},  // p99.9 would leave 9
		{1000, 990, true},  // exactly 10 beyond p99
		{999, 950, true},
		{200, 950, true},
		{100, 900, true},
		{40, 750, true},
		{20, 500, true},
		{19, 500, false},
		{0, 500, false},
	} {
		got, ok := tailRule(tc.n)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("tailRule(%d) = p%d %v, want p%d %v", tc.n, got, ok, tc.want, tc.wantOK)
		}
		if ok {
			if beyond := tc.n - rankOf(got, tc.n); beyond < minBeyond {
				t.Errorf("tailRule(%d) = p%d leaves %d beyond", tc.n, got, beyond)
			}
		}
	}
}

func TestSummarizeCountsSupport(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i) // unsorted input
	}
	s := summarize(xs)
	if s.N != 500 || s.P50 != 250 || s.P99 != 495 || s.P99Beyond != 5 || s.TailPM != 950 || s.Tail != 475 {
		t.Errorf("summary = %+v", s)
	}
	if xs[0] != 500 {
		t.Error("summarize reordered its input")
	}
}

func TestSlipFromScheduledTime(t *testing.T) {
	ideal := idealDuration(300*time.Millisecond, 40*time.Millisecond, 25)
	if ideal != 1260*time.Millisecond {
		t.Fatalf("ideal = %v, want 1.26s", ideal)
	}
	// Due at 1s, launched 30ms late, returned at 2.3s: the launch delay
	// is part of the slip, since the session is timed from its due time.
	if got := slip(time.Second, 2300*time.Millisecond, ideal); got != 40*time.Millisecond {
		t.Errorf("slip = %v, want 40ms", got)
	}
	// A session that joined its lineage late in the cohort window
	// finishes early: slip is negative, not clamped.
	if got := slip(time.Second, 2100*time.Millisecond, ideal); got != -160*time.Millisecond {
		t.Errorf("slip = %v, want -160ms", got)
	}
}

func TestScheduleIsSeededAndFixedSize(t *testing.T) {
	a := schedule(fanoutProfile, 7, 0, 60, 2*time.Second)
	b := schedule(fanoutProfile, 7, 0, 60, 2*time.Second)
	c := schedule(fanoutProfile, 8, 0, 60, 2*time.Second)
	if len(a) != 120 || len(c) != 120 {
		t.Fatalf("sessions = %d, %d, want 120", len(a), len(c))
	}
	same := true
	decoders := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between equal seeds", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if a[i].due < 0 || a[i].due >= 2*time.Second {
			t.Fatalf("arrival %d at %v outside the window", i, a[i].due)
		}
		same = same && a[i].due == c[i].due
		if a[i].decode {
			decoders++
		}
	}
	if same {
		t.Error("different seeds gave the same arrival times")
	}
	if decoders != len(fanoutProfile.cohorts) {
		t.Errorf("%d decoding clients at the nominal step, want one per cohort", decoders)
	}
}

func TestSLOLadderSelection(t *testing.T) {
	ok := func(rate, p99 float64) *stepResult {
		return &stepResult{rate: rate, sessions: 100, slip: summary{P99: p99}}
	}
	steps := []*stepResult{ok(10, 5), ok(20, 30), ok(40, 150)}
	if got := sloRate(steps, 100); got != 20 {
		t.Errorf("slo_rate = %v, want 20", got)
	}
	failed := ok(20, 30)
	failed.failed = 1
	if got := sloRate([]*stepResult{ok(10, 5), failed}, 100); got != 10 {
		t.Errorf("a step with a failed session qualified: slo_rate = %v", got)
	}
	backlog := ok(20, 30)
	backlog.backlog = true
	if got := sloRate([]*stepResult{ok(10, 5), backlog}, 100); got != 10 {
		t.Errorf("a step with a growing backlog qualified: slo_rate = %v", got)
	}
	lagging := ok(20, 30)
	lagging.late = 6 // of 100 launches
	if got := sloRate([]*stepResult{ok(10, 5), lagging}, 100); got != 10 {
		t.Errorf("a step whose generator fell behind qualified: slo_rate = %v", got)
	}
	if got := sloRate([]*stepResult{ok(10, 500)}, 100); got != 0 {
		t.Errorf("slo_rate = %v with no qualifying step, want 0", got)
	}
}

func TestGeneratorValidity(t *testing.T) {
	lags := []float64{0.5, 3, maxGenLagMS, maxGenLagMS + 1, 120}
	if got := lateLaunches(lags); got != 2 {
		t.Errorf("late launches = %d, want 2", got)
	}
	for _, tc := range []struct {
		sessions, late int
		want           bool
	}{
		{100, 0, true},
		{100, 5, true}, // one stall delays a few launches
		{100, 6, false},
		{10, 1, false},
		{0, 0, false},
	} {
		s := &stepResult{sessions: tc.sessions, late: tc.late}
		if got := s.genValid(); got != tc.want {
			t.Errorf("%d late of %d: valid %v, want %v", tc.late, tc.sessions, got, tc.want)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := []float64{1, -3, 2, 0, 1, -2, 2, 1, 0}
	if backlogGrowing(flat, 10) {
		t.Error("flat slips reported as a growing backlog")
	}
	rising := []float64{1, 2, 3, 20, 30, 40, 80, 90, math.Inf(1)}
	if !backlogGrowing(rising, 10) {
		t.Error("rising slips not reported as a growing backlog")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "cell", Start: 40, End: 90}, // overlaps cell 2
		{ID: 4, Parent: 2, Name: "encode", Start: 10, End: 30},
		{ID: 5, Parent: 2, Name: "sim", Start: 30, End: 55},
		{ID: 6, Parent: 3, Name: "encode", Start: 35, End: 50}, // starts before its parent
	}
	lt := selfTimes(spans)
	want := map[string]layerTime{
		"pass":   {Count: 1, Total: 100, Self: 20}, // children cover [10, 90)
		"cell":   {Count: 2, Total: 100, Self: 5 + 40},
		"encode": {Count: 2, Total: 35, Self: 35},
		"sim":    {Count: 1, Total: 25, Self: 25},
	}
	for name, w := range want {
		if lt[name] != w {
			t.Errorf("%s: %+v, want %+v", name, lt[name], w)
		}
	}
}

func TestTracerOffIsNoop(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
	on := newTracer()
	a := on.Begin("a", 0)
	b := on.Begin("b", a)
	on.End(b)
	if got := on.Spans(); len(got) != 1 || got[0].Name != "b" || got[0].Parent != a {
		t.Errorf("open spans leaked or parent lost: %+v", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists
// and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q not in the program", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(gatedE2E) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(gatedE2E))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != gatedE2E[i] {
			t.Errorf("end_to_end[%d] = %q, program %q", i, m.Name, gatedE2E[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
