package experiment

import (
	"fmt"
	"math"
	"strings"

	"pbpair/internal/bitcache"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/network"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
)

// The experiments below regenerate the paper's evaluation (Section 4).
// Frame counts are parameters: the paper uses 300 frames (Figure 5)
// and 50 frames (Figure 6); benchmarks shrink them to keep runtimes
// sane while preserving every qualitative relationship.
//
// Every experiment splits into an encode phase and a simulate phase
// (see pipeline.go), so loss-independent axes never re-encode: Fig5
// and Sweep evaluate each encode once through the batch or analytic
// engine, Fig6 through a Plan of scalar simulations against the
// shared bitstreams.

// Engine selects how an experiment evaluates the lossy channel.
type Engine int

const (
	// EngineMonteCarlo samples Trials independent i.i.d. loss
	// realizations per cell through the bit-packed batch engine
	// (SimBatch). It is the zero value.
	EngineMonteCarlo Engine = iota
	// EngineAnalytic computes closed-form expectations under i.i.d.
	// loss (Analyze); nothing is sampled.
	EngineAnalytic
)

// Fig5Config parameterises the Figure 5 reproduction.
type Fig5Config struct {
	Frames      int     // paper: 300
	ProbeFrames int     // calibration probe length (default: Frames/5, min 10)
	PLR         float64 // paper: 0.10
	QP          int     // default 8
	SearchRange int     // motion search range (default 15; benches shrink it)
	Seed        uint64  // loss-pattern seed
	Profile     energy.Profile
	// Engine selects the channel evaluation of every cell.
	Engine Engine
	// Trials is the number of Monte-Carlo channel realizations per
	// cell (0 means 1). Lane 0 is the single-channel run seeded
	// Seed + regime, so the means converge on — and at one trial
	// equal — that run. The analytic engine samples nothing and
	// accepts only one.
	Trials int
	// Workers bounds the experiment fan-out: the three per-sequence
	// calibrations run concurrently, then all (sequence, scheme)
	// cells. <= 0 selects parallel.DefaultWorkers, 1 runs serially;
	// the result is identical for every value.
	Workers int
	// Cache, when non-nil, memoizes encodes (calibration probes
	// included) by content fingerprint, sharing them across seeds and
	// repeated calls. Results are identical with or without it.
	Cache *bitcache.Store
}

// WithDefaults fills zero fields with their documented defaults.
func (c Fig5Config) WithDefaults() Fig5Config {
	if c.Frames == 0 {
		c.Frames = 300
	}
	if c.ProbeFrames == 0 {
		c.ProbeFrames = c.Frames / 5
		if c.ProbeFrames < 10 {
			c.ProbeFrames = 10
		}
	}
	if c.PLR == 0 {
		c.PLR = 0.10
	}
	if c.QP == 0 {
		c.QP = 8
	}
	if c.Seed == 0 {
		c.Seed = 2005
	}
	if c.Profile.Name == "" {
		c.Profile = energy.IPAQ
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	return c
}

// Fig5Row is one (sequence, scheme) cell of Figure 5's four panels.
// The quality metrics are means over the cell's channel trials (the
// analytic engine's expectations); the spread fields are zero at one
// trial and under the analytic engine.
type Fig5Row struct {
	Sequence  string
	Scheme    string
	AvgPSNR   float64 // panel (a)
	BadPixels float64 // panel (b): total over the sequence
	FileKB    float64 // panel (c)
	EnergyJ   float64 // panel (d)
	IntraTh   float64 // PBPAIR's calibrated threshold (0 for others)
	// Counters holds the raw work tally, so the same run can be
	// re-priced under another device profile (the iPAQ/Zaurus
	// comparison of §4.1).
	Counters energy.Counters

	PSNRStd, PSNRCI95     float64 // sample std dev and 95% CI half-width of AvgPSNR
	BadPixStd, BadPixCI95 float64 // the same for BadPixels
	Trials                int     // channel realizations averaged (0 for the analytic engine)
}

// HeadlineSavings summarises the paper's headline result from Fig5
// rows: PBPAIR's energy saving relative to each other scheme, averaged
// across sequences (paper: −34% vs AIR, −24% vs GOP, −17% vs PGOP).
// Keys are scheme names; values are fractional savings (0.34 = 34%).
func HeadlineSavings(rows []Fig5Row) map[string]float64 {
	type acc struct{ pb, other float64 }
	sums := map[string]*acc{}
	pbBySeq := map[string]float64{}
	for _, r := range rows {
		if r.Scheme == "PBPAIR" {
			pbBySeq[r.Sequence] = r.EnergyJ
		}
	}
	for _, r := range rows {
		if r.Scheme == "PBPAIR" || r.Scheme == "NO" {
			continue
		}
		pb, ok := pbBySeq[r.Sequence]
		if !ok {
			continue
		}
		a := sums[r.Scheme]
		if a == nil {
			a = &acc{}
			sums[r.Scheme] = a
		}
		a.pb += pb
		a.other += r.EnergyJ
	}
	out := make(map[string]float64, len(sums))
	for scheme, a := range sums {
		if a.other > 0 {
			out[scheme] = 1 - a.pb/a.other
		}
	}
	return out
}

// mbGrid returns the macroblock grid of a source.
func mbGrid(src synth.Source) (rows, cols int) {
	w, h := src.Dims()
	return h / 16, w / 16
}

// probeBytes encodes ProbeFrames frames loss-free and returns the
// total size — the calibration probe. Probes go through the cache,
// so a bisection repeated across seeds, engines or processes (the
// cmd tools with a spill dir) encodes each probe once.
func probeBytes(cache *bitcache.Store, spec EncodeSpec) (int, error) {
	seq, err := Encode(cache, spec)
	if err != nil {
		return 0, err
	}
	return seq.TotalBytes, nil
}

// fig5Thresholds runs Figure 5's calibration phase: one Intra_Th per
// sequence, bisected so PBPAIR's probe size matches PGOP-3's (the
// paper's size-matching rule). Each bisection is inherently sequential
// (every probe depends on the previous bracket), but the sequences are
// independent, and every probe is a cacheable loss-free encode.
func fig5Thresholds(cfg Fig5Config, regimes []synth.Regime) ([]float64, error) {
	probeSpec := func(regime synth.Regime, scheme SchemeSpec) EncodeSpec {
		return EncodeSpec{
			Regime: regime, Frames: cfg.ProbeFrames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: scheme,
		}
	}
	return parallel.Map(cfg.Workers, len(regimes), func(i int) (float64, error) {
		src := synth.Shared(regimes[i])
		gridRows, gridCols := mbGrid(src)
		pgopProbe, err := probeBytes(cfg.Cache, probeSpec(regimes[i], SchemePGOP(3, gridCols)))
		if err != nil {
			return 0, err
		}
		return CalibrateIntraTh(func(t float64) (int, error) {
			return probeBytes(cfg.Cache, probeSpec(regimes[i],
				SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: t, PLR: cfg.PLR})))
		}, pgopProbe, 10)
	})
}

// fig5Scheme is one entry of Figure 5's scheme list.
type fig5Scheme struct {
	spec    SchemeSpec
	intraTh bool // report the calibrated threshold for this row
}

// fig5Schemes lists Figure 5's five schemes for one sequence's grid,
// with PBPAIR at the calibrated threshold.
func fig5Schemes(gridRows, gridCols int, th, plr float64) []fig5Scheme {
	return []fig5Scheme{
		{spec: SchemeNO()},
		{spec: SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: th, PLR: plr}), intraTh: true},
		{spec: SchemePGOP(3, gridCols)},
		{spec: SchemeGOP(3)},
		{spec: SchemeAIR(24)},
	}
}

// Fig5 reproduces Figure 5: NO, PBPAIR, PGOP-3, GOP-3 and AIR-24 on
// the three sequences at PLR 10%, reporting average PSNR, bad pixels,
// encoded size and encoding energy. PBPAIR's Intra_Th is calibrated to
// match PGOP-3's encoded size, as in the paper ("We choose Intra_Th
// that gives similar compression ratio with PGOP-3, GOP-3, and
// AIR-24"). Every engine shares the calibration and the encodes, so
// the Monte-Carlo and analytic tables compare the same operating
// points and differ only in the quality columns.
//
// Cells fan out across cfg.Workers goroutines (each cell's batch
// engine runs serially inside its worker); rows come back in the
// serial iteration order (sequence outer, scheme inner) for every
// worker count.
func Fig5(cfg Fig5Config) ([]Fig5Row, error) {
	cfg = cfg.WithDefaults()
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: Fig5 trials %d negative", cfg.Trials)
	}
	if cfg.Engine != EngineMonteCarlo && cfg.Engine != EngineAnalytic {
		return nil, fmt.Errorf("experiment: Fig5 engine %d unknown", cfg.Engine)
	}
	if cfg.Engine == EngineAnalytic && cfg.Trials > 1 {
		return nil, fmt.Errorf("experiment: Fig5 analytic engine samples no trials (got %d)", cfg.Trials)
	}
	regimes := []synth.Regime{synth.RegimeForeman, synth.RegimeAkiyo, synth.RegimeGarden}
	ths, err := fig5Thresholds(cfg, regimes)
	if err != nil {
		return nil, err
	}

	type cell struct {
		regime synth.Regime
		scheme SchemeSpec
		th     float64 // reported threshold (PBPAIR only)
	}
	var cells []cell
	for si, regime := range regimes {
		gridRows, gridCols := mbGrid(synth.Shared(regime))
		for _, sc := range fig5Schemes(gridRows, gridCols, ths[si], cfg.PLR) {
			c := cell{regime: regime, scheme: sc.spec}
			if sc.intraTh {
				c.th = ths[si]
			}
			cells = append(cells, c)
		}
	}
	return parallel.Map(cfg.Workers, len(cells), func(i int) (Fig5Row, error) {
		c := cells[i]
		src := synth.Shared(c.regime)
		seq, err := Encode(cfg.Cache, EncodeSpec{
			Regime: c.regime, Frames: cfg.Frames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: c.scheme,
		})
		if err != nil {
			return Fig5Row{}, err
		}
		// Size and energy are loss-independent: the encoder never sees
		// the channel, so they come from the encode for every engine.
		row := Fig5Row{
			Sequence: src.Name(), Scheme: seq.Scheme,
			FileKB:   float64(seq.TotalBytes) / 1024,
			EnergyJ:  cfg.Profile.Joules(seq.Counters),
			IntraTh:  c.th,
			Counters: seq.Counters,
		}
		name := fmt.Sprintf("fig5/%s/%s", src.Name(), c.scheme.Key())
		if cfg.Engine == EngineAnalytic {
			res, err := Analyze(seq, src, AnalyticSpec{Name: name, LossRate: cfg.PLR, Profile: cfg.Profile})
			if err != nil {
				return Fig5Row{}, err
			}
			row.AvgPSNR = res.ExpPSNR.Mean()
			// Rounded half up to whole pixels, as the analytic table has
			// always printed it.
			row.BadPixels = math.Floor(res.ExpBadPixTotal + 0.5)
			return row, nil
		}
		mtr, err := SimBatch(seq, src, SimSpec{Name: name, Profile: cfg.Profile},
			BatchSpec{Trials: cfg.Trials, Seed: cfg.Seed + uint64(c.regime), LossRate: cfg.PLR, Workers: 1})
		if err != nil {
			return Fig5Row{}, err
		}
		row.AvgPSNR, row.PSNRStd, row.PSNRCI95 = mtr.PSNR.Mean, mtr.PSNR.Std, mtr.PSNR.CI95
		row.BadPixels, row.BadPixStd, row.BadPixCI95 = mtr.BadPixels.Mean, mtr.BadPixels.Std, mtr.BadPixels.CI95
		row.Trials = cfg.Trials
		return row, nil
	})
}

// Fig6Config parameterises the Figure 6 reproduction.
type Fig6Config struct {
	Frames      int   // paper: 50
	QP          int   // default 8
	SearchRange int   // motion search range (default 15)
	LossEvents  []int // frames lost (e1..e7); defaults include a GOP-8 I-frame
	ProbeFrames int
	// Workers bounds the experiment fan-out across the scheme traces.
	// <= 0 selects parallel.DefaultWorkers, 1 runs serially.
	Workers int
	// DecoderWorkers sets the per-frame GOB-row reconstruction
	// goroutines of every simulation's decoder (<= 1 decodes
	// serially). Output is bit-identical for every value.
	DecoderWorkers int
	// Cache, when non-nil, memoizes encodes by content fingerprint.
	Cache *bitcache.Store
}

// WithDefaults fills zero fields with their documented defaults.
func (c Fig6Config) WithDefaults() Fig6Config {
	if c.Frames == 0 {
		c.Frames = 50
	}
	if c.QP == 0 {
		c.QP = 8
	}
	if len(c.LossEvents) == 0 {
		// Seven loss events; e7 = frame 36 is a GOP-8 I-frame (multiples
		// of 9), demonstrating the paper's I-frame-loss failure mode.
		c.LossEvents = []int{4, 7, 13, 17, 23, 29, 36}
	}
	if c.ProbeFrames == 0 {
		c.ProbeFrames = 25
	}
	return c
}

// Fig6Series is one scheme's per-frame trace for Figure 6.
type Fig6Series struct {
	Scheme     string
	PSNR       []float64 // panel (a)
	FrameBytes []float64 // panel (b)
	CleanPSNR  []float64 // same encode without loss (recovery baseline)
	Recovery   []int     // frames to recover per loss event (E11)
	IntraTh    float64   // PBPAIR only
}

// Fig6 reproduces Figure 6: per-frame PSNR and frame-size traces for
// PBPAIR, PGOP-1, GOP-8 and AIR-10 (size-matched per the paper) on the
// foreman sequence under scripted loss events. Each scheme's clean and
// lossy traces are two simulations of one shared encode — the
// structural form of "the encoder never sees the channel".
func Fig6(cfg Fig6Config) ([]Fig6Series, error) {
	cfg = cfg.WithDefaults()
	src := synth.Shared(synth.RegimeForeman)
	gridRows, gridCols := mbGrid(src)
	const plr = 0.10 // PBPAIR's assumed network estimate

	probeSpec := func(scheme SchemeSpec) EncodeSpec {
		return EncodeSpec{
			Regime: synth.RegimeForeman, Frames: cfg.ProbeFrames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: scheme,
		}
	}

	// Size-match PBPAIR to GOP-8's probe size (the paper: "we choose
	// PGOP-1, GOP-8, and AIR-10 since those schemes generate a similar
	// size of encoded bitstream").
	gopProbe, err := probeBytes(cfg.Cache, probeSpec(SchemeGOP(8)))
	if err != nil {
		return nil, err
	}
	th, err := CalibrateIntraTh(func(t float64) (int, error) {
		return probeBytes(cfg.Cache, probeSpec(
			SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: t, PLR: plr})))
	}, gopProbe, 10)
	if err != nil {
		return nil, err
	}

	cases := []struct {
		spec    SchemeSpec
		intraTh float64
	}{
		{spec: SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: th, PLR: plr}), intraTh: th},
		{spec: SchemePGOP(1, gridCols)},
		{spec: SchemeGOP(8)},
		{spec: SchemeAIR(10)},
	}

	plan := NewPlan(cfg.Workers, cfg.Cache)
	for _, c := range cases {
		enc := plan.Encode(EncodeSpec{
			Regime: synth.RegimeForeman, Frames: cfg.Frames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: c.spec,
		})
		plan.Simulate(enc, SimSpec{Name: "fig6-clean", DecoderWorkers: cfg.DecoderWorkers})
		plan.Simulate(enc, SimSpec{
			Name:           "fig6-lossy",
			Channel:        network.NewSchedule(cfg.LossEvents...),
			DecoderWorkers: cfg.DecoderWorkers,
		})
	}
	runs, err := plan.Run()
	if err != nil {
		return nil, err
	}

	out := make([]Fig6Series, 0, len(cases))
	for i, c := range cases {
		clean, lossy := runs[2*i], runs[2*i+1]
		out = append(out, Fig6Series{
			Scheme:     lossy.Scheme,
			PSNR:       lossy.PSNR.Values(),
			FrameBytes: lossy.FrameBytes.Values(),
			CleanPSNR:  clean.PSNR.Values(),
			Recovery:   RecoveryFrames(clean.PSNR.Values(), lossy.PSNR.Values(), cfg.LossEvents, 1.0),
			IntraTh:    c.intraTh,
		})
	}
	return out, nil
}

// SweepConfig parameterises the §4.3 / §4.4 operating-point sweeps.
type SweepConfig struct {
	Frames      int
	QP          int
	SearchRange int
	Seed        uint64
	IntraThs    []float64
	PLRs        []float64
	Regime      synth.Regime
	Profile     energy.Profile
	// Workers bounds the goroutines running encodes and grid points
	// concurrently (the experiment fan-out level): <= 0 selects
	// parallel.DefaultWorkers, 1 runs serially. Every grid point is an
	// independent pipeline keyed by its grid index, so the returned
	// slice — and any CSV rendered from it — is byte-identical for
	// every worker count.
	Workers int
	// Cache, when non-nil, memoizes encodes by content fingerprint.
	// PBPAIR's planner depends on both Intra_Th and PLR, so every grid
	// cell is a distinct encode within one sweep; the cache pays off
	// across repeated sweeps and, with a spill dir, across processes.
	Cache *bitcache.Store
	// Trials is the number of independent loss realizations every
	// grid point is evaluated against through the bit-packed batch
	// engine (SimBatch); 0 means 1. More than one fills the points'
	// CI95 fields. Lane 0 is the single channel seeded Seed, so the
	// point means converge on — and at one trial equal — that run.
	Trials int
}

// WithDefaults fills zero fields with their documented defaults.
func (c SweepConfig) WithDefaults() SweepConfig {
	if c.Frames == 0 {
		c.Frames = 60
	}
	if c.QP == 0 {
		c.QP = 8
	}
	if c.Seed == 0 {
		c.Seed = 77
	}
	if len(c.IntraThs) == 0 {
		c.IntraThs = []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1}
	}
	if len(c.PLRs) == 0 {
		c.PLRs = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if c.Regime == 0 {
		c.Regime = synth.RegimeForeman
	}
	if c.Profile.Name == "" {
		c.Profile = energy.IPAQ
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	return c
}

// SweepPoint is one (Intra_Th, PLR) operating point: the §4.3
// resiliency-vs-energy and §4.4 resiliency-vs-quality data. With
// SweepConfig.Trials > 1 the quality metrics are means over the trial
// lanes and the CI95 fields carry their 95% confidence half-widths
// (zero in single-trial sweeps).
type SweepPoint struct {
	IntraTh          float64
	PLR              float64
	IntraMBsPerFrame float64
	FileKB           float64
	EnergyJ          float64
	AvgPSNR          float64
	BadPixels        int
	Trials           int
	PSNRCI95         float64
	BadPixelsCI95    float64
}

// Sweep runs the full Intra_Th × PLR grid: every grid point is one
// encode and one SimBatch pass over cfg.Trials lanes. Grid points fan
// out across cfg.Workers goroutines (each point's batch engine runs
// serially inside its worker); the returned slice follows the serial
// nested loops (PLR outer, Intra_Th inner) for every worker count.
func Sweep(cfg SweepConfig) ([]SweepPoint, error) {
	cfg = cfg.WithDefaults()
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: Sweep trials %d negative", cfg.Trials)
	}
	src := synth.Shared(cfg.Regime)
	gridRows, gridCols := mbGrid(src)

	type gridPoint struct{ th, plr float64 }
	var points []gridPoint
	for _, plr := range cfg.PLRs {
		for _, th := range cfg.IntraThs {
			points = append(points, gridPoint{th: th, plr: plr})
		}
	}
	return parallel.Map(cfg.Workers, len(points), func(i int) (SweepPoint, error) {
		pt := points[i]
		seq, err := Encode(cfg.Cache, EncodeSpec{
			Regime: cfg.Regime, Frames: cfg.Frames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: pt.th, PLR: pt.plr}),
		})
		if err != nil {
			return SweepPoint{}, err
		}
		mtr, err := SimBatch(seq, src, SimSpec{
			Name:    fmt.Sprintf("sweep/th%.2f/plr%.2f", pt.th, pt.plr),
			Profile: cfg.Profile,
		}, BatchSpec{Trials: cfg.Trials, Seed: cfg.Seed, LossRate: pt.plr, Workers: 1})
		if err != nil {
			return SweepPoint{}, err
		}
		intraMBs := 0
		for f := range seq.Frames {
			intraMBs += seq.Frames[f].IntraMBs
		}
		return SweepPoint{
			IntraTh:          pt.th,
			PLR:              pt.plr,
			IntraMBsPerFrame: float64(intraMBs) / float64(len(seq.Frames)),
			FileKB:           float64(mtr.TotalBytes) / 1024,
			EnergyJ:          mtr.Joules,
			AvgPSNR:          mtr.PSNR.Mean,
			BadPixels:        int(math.Round(mtr.BadPixels.Mean)),
			Trials:           cfg.Trials,
			PSNRCI95:         mtr.PSNR.CI95,
			BadPixelsCI95:    mtr.BadPixels.CI95,
		}, nil
	})
}

// SweepCSV renders sweep points in the CSV layout of cmd/pbpair-sweep:
// a header line plus one row per point. The CLI and the determinism
// tests share this renderer, so "byte-identical CSV for every worker
// count" is pinned against the exact bytes users see. Single-trial
// sweeps keep the legacy seven-column schema byte for byte;
// multi-trial sweeps (any point with Trials > 1) append the
// confidence columns psnr_ci95, bad_pixels_ci95 and trials.
func SweepCSV(points []SweepPoint) string {
	multi := false
	for _, p := range points {
		if p.Trials > 1 {
			multi = true
			break
		}
	}
	var b strings.Builder
	if !multi {
		b.WriteString("intra_th,plr,intra_mbs_per_frame,file_kb,energy_j,avg_psnr_db,bad_pixels\n")
		for _, p := range points {
			fmt.Fprintf(&b, "%.3f,%.3f,%.2f,%.1f,%.4f,%.2f,%d\n",
				p.IntraTh, p.PLR, p.IntraMBsPerFrame, p.FileKB, p.EnergyJ, p.AvgPSNR, p.BadPixels)
		}
		return b.String()
	}
	b.WriteString("intra_th,plr,intra_mbs_per_frame,file_kb,energy_j,avg_psnr_db,bad_pixels,psnr_ci95,bad_pixels_ci95,trials\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f,%.3f,%.2f,%.1f,%.4f,%.2f,%d,%.4f,%.2f,%d\n",
			p.IntraTh, p.PLR, p.IntraMBsPerFrame, p.FileKB, p.EnergyJ, p.AvgPSNR, p.BadPixels,
			p.PSNRCI95, p.BadPixelsCI95, p.Trials)
	}
	return b.String()
}
