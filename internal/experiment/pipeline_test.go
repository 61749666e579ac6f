package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"pbpair/internal/bitcache"
	"pbpair/internal/codec"
	"pbpair/internal/network"
	"pbpair/internal/synth"
)

func newCache(t *testing.T) *bitcache.Store {
	t.Helper()
	s, err := bitcache.New(bitcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncodeSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec EncodeSpec
	}{
		{"no regime", EncodeSpec{Frames: 4, Scheme: SchemeNO()}},
		{"bad regime", EncodeSpec{Regime: synth.Regime(99), Frames: 4, Scheme: SchemeNO()}},
		{"no frames", EncodeSpec{Regime: synth.RegimeAkiyo, Scheme: SchemeNO()}},
		{"no scheme", EncodeSpec{Regime: synth.RegimeAkiyo, Frames: 4}},
	}
	for _, tc := range cases {
		if _, err := Encode(nil, tc.spec); err == nil {
			t.Errorf("%s: encode accepted", tc.name)
		}
	}
}

// TestEncodeMatchesScenario pins the refactor's central identity: a
// spec-based encode and the equivalent Scenario encode produce the
// same sequence, so Plan-based experiments inherit every byte of the
// pre-pipeline outputs.
func TestEncodeMatchesScenario(t *testing.T) {
	spec := EncodeSpec{
		Regime: synth.RegimeForeman, Frames: 5,
		SearchRange: 7, Scheme: SchemeGOP(3),
	}
	fromSpec, err := Encode(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := SchemeGOP(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	fromScenario, err := encodeScenario(Scenario{
		Name: "x", Source: synth.New(synth.RegimeForeman), Frames: 5,
		SearchRange: 7, Planner: planner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSpec, fromScenario) {
		t.Fatal("spec encode and scenario encode diverged")
	}
}

// TestRunMatchesPlan pins that a Plan produces exactly what Run does
// for the same configuration, cache on or off, at several worker
// counts.
func TestRunMatchesPlan(t *testing.T) {
	const frames = 5
	channelAt := func(seed uint64) network.Channel {
		ch, err := network.NewUniformLoss(0.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	planner, err := SchemeAIR(9).Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Scenario{
		Name: "pipe", Source: synth.New(synth.RegimeAkiyo), Frames: frames,
		SearchRange: 7, Planner: planner, Channel: channelAt(5),
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/cached=%t", workers, cached), func(t *testing.T) {
				var cache *bitcache.Store
				if cached {
					cache = newCache(t)
				}
				plan := NewPlan(workers, cache)
				enc := plan.Encode(EncodeSpec{
					Regime: synth.RegimeAkiyo, Frames: frames,
					SearchRange: 7, Scheme: SchemeAIR(9),
				})
				plan.Simulate(enc, SimSpec{Name: "pipe", Channel: channelAt(5)})
				got, err := plan.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
					t.Fatal("plan result diverged from Run")
				}
			})
		}
	}
}

// TestPlanDeduplicatesEncodes verifies the dedupe and single-encode
// sharing: N simulations of one spec run one encode.
func TestPlanDeduplicatesEncodes(t *testing.T) {
	cache := newCache(t)
	plan := NewPlan(1, cache)
	spec := EncodeSpec{Regime: synth.RegimeAkiyo, Frames: 3, SearchRange: 7, Scheme: SchemeNO()}
	a := plan.Encode(spec)
	b := plan.Encode(spec)
	if a != b {
		t.Fatalf("equal specs got distinct handles %d, %d", a, b)
	}
	// The same spec with a different Workers knob is the same encode.
	c := plan.Encode(EncodeSpec{Regime: synth.RegimeAkiyo, Frames: 3, SearchRange: 7, Scheme: SchemeNO(), Workers: 4})
	if c != a {
		t.Fatal("Workers knob broke encode dedupe")
	}
	d := plan.Encode(EncodeSpec{Regime: synth.RegimeAkiyo, Frames: 4, SearchRange: 7, Scheme: SchemeNO()})
	if d == a {
		t.Fatal("distinct specs shared a handle")
	}
	for seed := uint64(0); seed < 3; seed++ {
		ch, err := network.NewUniformLoss(0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		plan.Simulate(a, SimSpec{Name: "s", Channel: ch})
	}
	plan.Simulate(d, SimSpec{Name: "d"})
	results, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	st := cache.Stats()
	if st.Misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (one per distinct spec)", st.Misses)
	}
}

func TestPlanSimulatePanicsOnBadHandle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range handle")
		}
	}()
	NewPlan(1, nil).Simulate(0, SimSpec{})
}

// TestFig5IdenticalCacheOnOff pins the headline acceptance property on
// Fig5: byte-identical rows with the cache on or off, workers 1 or 4,
// and across repeated runs against a warm cache.
func TestFig5IdenticalCacheOnOff(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig5 grid in -short mode")
	}
	cfg := Fig5Config{Frames: 8, ProbeFrames: 8, SearchRange: 7, Workers: 1}
	want, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := newCache(t)
	for _, workers := range []int{1, 4} {
		for run := 0; run < 2; run++ { // run 2 hits the warm cache
			c := cfg
			c.Workers = workers
			c.Cache = cache
			got, err := Fig5(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d run=%d: cached rows diverged", workers, run)
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("repeated Fig5 never hit the cache: %+v", st)
	}
}

// TestSweepIdenticalCacheOnOff does the same for the sweep CSV — the
// exact bytes the CLI emits.
func TestSweepIdenticalCacheOnOff(t *testing.T) {
	cfg := SweepConfig{
		Frames: 4, SearchRange: 7,
		IntraThs: []float64{0, 0.9}, PLRs: []float64{0, 0.2},
		Workers: 1,
	}
	base, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := SweepCSV(base)
	cache := newCache(t)
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		c.Cache = cache
		got, err := Sweep(c)
		if err != nil {
			t.Fatal(err)
		}
		if SweepCSV(got) != wantCSV {
			t.Fatalf("workers=%d: cached sweep CSV diverged", workers)
		}
	}
}

// TestRDCurveSchemeMatchesMakePlanner pins that the cacheable Scheme
// path and the legacy MakePlanner path produce the same curve.
func TestRDCurveSchemeMatchesMakePlanner(t *testing.T) {
	base := RDConfig{
		Regime: synth.RegimeAkiyo, Frames: 4, SearchRange: 7,
		QPs: []int{4, 16}, Workers: 1,
	}
	legacy := base
	legacy.MakePlanner = func() (codec.ModePlanner, error) { return SchemeGOP(3).Build() }
	want, err := RDCurve(legacy)
	if err != nil {
		t.Fatal(err)
	}
	viaScheme := base
	viaScheme.Scheme = SchemeGOP(3)
	viaScheme.Cache = newCache(t)
	got, err := RDCurve(viaScheme)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Scheme path diverged from MakePlanner path")
	}
	if st := viaScheme.Cache.Stats(); st.Misses != int64(len(base.QPs)) {
		t.Fatalf("cache misses = %d, want %d", st.Misses, len(base.QPs))
	}
}

// TestFig5MultiSeedIndependenceCheck exercises the multi-seed
// oracle's invariant: it enforces identical per-seed size/energy, and
// a healthy run passes it with the cache shared across seeds.
func TestFig5MultiSeedIndependenceCheck(t *testing.T) {
	cfg := Fig5Config{Frames: 6, ProbeFrames: 6, SearchRange: 7, Workers: 2, Cache: newCache(t)}
	rows, err := fig5MultiSeed(cfg, []uint64{3, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Trials != 3 {
			t.Fatalf("%s/%s aggregated %d seeds, want 3", r.Sequence, r.Scheme, r.Trials)
		}
	}
	// With a shared cache the three seeds must coalesce onto one encode
	// per distinct spec: every seed re-requests the same grid.
	st := cfg.Cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("seed axis never hit the shared cache: %+v", st)
	}
}
