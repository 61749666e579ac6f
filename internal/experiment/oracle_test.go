package experiment

import (
	"fmt"
	"math"

	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/network"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
)

// Test oracles. Fig5 and Sweep evaluate every cell through the batch
// engine; the scalar paths below — one Plan of Simulate runs, one
// sampled channel per cell — are what they replaced, kept as the
// reference the single-trial pins compare against, like the *Ref
// kernels beside the fast ones.

// fig5Scalar is Figure 5 through a Plan of scalar Simulate runs: the
// same calibration and encodes as Fig5, each cell against one uniform
// channel seeded cfg.Seed + regime. Fig5 at one trial must equal it
// field for field.
func fig5Scalar(cfg Fig5Config) ([]Fig5Row, error) {
	cfg = cfg.WithDefaults()
	regimes := []synth.Regime{synth.RegimeForeman, synth.RegimeAkiyo, synth.RegimeGarden}
	ths, err := fig5Thresholds(cfg, regimes)
	if err != nil {
		return nil, err
	}
	plan := NewPlan(cfg.Workers, cfg.Cache)
	type cell struct {
		sequence string
		th       float64
	}
	var cells []cell
	for si, regime := range regimes {
		src := synth.Shared(regime)
		gridRows, gridCols := mbGrid(src)
		for _, sc := range fig5Schemes(gridRows, gridCols, ths[si], cfg.PLR) {
			enc := plan.Encode(EncodeSpec{
				Regime: regime, Frames: cfg.Frames,
				QP: cfg.QP, SearchRange: cfg.SearchRange,
				Scheme: sc.spec,
			})
			channel, err := network.NewUniformLoss(cfg.PLR, cfg.Seed+uint64(regime))
			if err != nil {
				return nil, err
			}
			plan.Simulate(enc, SimSpec{
				Name:    fmt.Sprintf("fig5/%s/%s", src.Name(), sc.spec.Key()),
				Channel: channel,
				Profile: cfg.Profile,
			})
			c := cell{sequence: src.Name()}
			if sc.intraTh {
				c.th = ths[si]
			}
			cells = append(cells, c)
		}
	}
	results, err := plan.Run()
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, len(results))
	for i, res := range results {
		rows[i] = Fig5Row{
			Sequence:  cells[i].sequence,
			Scheme:    res.Scheme,
			AvgPSNR:   res.PSNR.Mean(),
			BadPixels: float64(res.TotalBadPix),
			FileKB:    float64(res.TotalBytes) / 1024,
			EnergyJ:   res.Joules,
			IntraTh:   cells[i].th,
			Counters:  res.Counters,
			Trials:    1,
		}
	}
	return rows, nil
}

// fig5MultiSeed reruns the whole scalar Figure 5 once per seed and
// aggregates each cell across the seeds — the multi-seed baseline the
// batch engine's trials replace. The encode is loss-independent, so
// size, energy and the work counters must come out identical across
// seeds; any divergence is an error, not silently averaged away.
// Seeds fan out across cfg.Workers goroutines and merge in seed order.
func fig5MultiSeed(cfg Fig5Config, seeds []uint64) ([]Fig5Row, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("fig5MultiSeed needs at least one seed")
	}
	perSeed, err := parallel.Map(cfg.Workers, len(seeds), func(i int) ([]Fig5Row, error) {
		c := cfg
		c.Seed = seeds[i]
		return fig5Scalar(c)
	})
	if err != nil {
		return nil, err
	}

	type acc struct {
		psnr, bad       []float64
		fileKB, energyJ float64
		counters        energy.Counters
	}
	accs := map[string]*acc{}
	var order []string
	for si, rows := range perSeed {
		for _, r := range rows {
			key := r.Sequence + "\x00" + r.Scheme
			a := accs[key]
			if a == nil {
				a = &acc{fileKB: r.FileKB, energyJ: r.EnergyJ, counters: r.Counters}
				accs[key] = a
				order = append(order, key)
			} else if r.FileKB != a.fileKB || r.EnergyJ != a.energyJ || r.Counters != a.counters {
				return nil, fmt.Errorf(
					"%s/%s loss-independent outputs diverged at seed %d (size %.3f KB vs %.3f KB, energy %.6f J vs %.6f J): the encoder must never see the channel",
					r.Sequence, r.Scheme, seeds[si], r.FileKB, a.fileKB, r.EnergyJ, a.energyJ)
			}
			a.psnr = append(a.psnr, r.AvgPSNR)
			a.bad = append(a.bad, r.BadPixels)
		}
	}

	out := make([]Fig5Row, 0, len(order))
	for _, key := range order {
		a := accs[key]
		seq, scheme := splitKey(key)
		pm, ps := meanStd(a.psnr)
		bm, bs := meanStd(a.bad)
		n := len(a.psnr)
		ci := func(std float64) float64 {
			if n < 2 {
				return 0
			}
			return 1.96 * std / math.Sqrt(float64(n))
		}
		out = append(out, Fig5Row{
			Sequence: seq, Scheme: scheme,
			AvgPSNR: pm, PSNRStd: ps, PSNRCI95: ci(ps),
			BadPixels: bm, BadPixStd: bs, BadPixCI95: ci(bs),
			FileKB:   a.fileKB,
			EnergyJ:  a.energyJ,
			Counters: a.counters,
			Trials:   n,
		})
	}
	return out, nil
}

func splitKey(key string) (seq, scheme string) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}

func meanStd(v []float64) (mean, std float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if len(v) < 2 {
		return mean, 0
	}
	var sum float64
	for _, x := range v {
		d := x - mean
		sum += d * d
	}
	return mean, math.Sqrt(sum / float64(len(v)-1))
}

// SeparationVerdict reports whether scheme a beats scheme b on mean
// PSNR by more than the combined standard error of the two means — a
// coarse but honest "is the win real" check used by the reproduction
// tests.
func SeparationVerdict(rows []Fig5Row, sequence, a, b string) (bool, error) {
	var ra, rb *Fig5Row
	for i := range rows {
		if rows[i].Sequence != sequence {
			continue
		}
		switch rows[i].Scheme {
		case a:
			ra = &rows[i]
		case b:
			rb = &rows[i]
		}
	}
	if ra == nil || rb == nil {
		return false, fmt.Errorf("schemes %q/%q not found for %q", a, b, sequence)
	}
	margin := (ra.PSNRStd + rb.PSNRStd) / math.Sqrt(float64(ra.Trials))
	return ra.AvgPSNR > rb.AvgPSNR+margin, nil
}

// sweepScalar is the sweep through a Plan of scalar Simulate runs: one
// channel per grid point seeded cfg.Seed, loss-free points on a
// perfect channel. Sweep at one trial must render the same CSV.
func sweepScalar(cfg SweepConfig) ([]SweepPoint, error) {
	cfg = cfg.WithDefaults()
	src := synth.Shared(cfg.Regime)
	gridRows, gridCols := mbGrid(src)
	plan := NewPlan(cfg.Workers, cfg.Cache)
	type point struct{ th, plr float64 }
	var points []point
	for _, plr := range cfg.PLRs {
		for _, th := range cfg.IntraThs {
			enc := plan.Encode(EncodeSpec{
				Regime: cfg.Regime, Frames: cfg.Frames,
				QP: cfg.QP, SearchRange: cfg.SearchRange,
				Scheme: SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: th, PLR: plr}),
			})
			var channel network.Channel
			if plr > 0 {
				uniform, err := network.NewUniformLoss(plr, cfg.Seed)
				if err != nil {
					return nil, err
				}
				channel = uniform
			}
			plan.Simulate(enc, SimSpec{
				Name:    fmt.Sprintf("sweep/th%.2f/plr%.2f", th, plr),
				Channel: channel,
				Profile: cfg.Profile,
			})
			points = append(points, point{th: th, plr: plr})
		}
	}
	results, err := plan.Run()
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(results))
	for i, res := range results {
		out[i] = SweepPoint{
			IntraTh:          points[i].th,
			PLR:              points[i].plr,
			IntraMBsPerFrame: res.IntraMBs.Mean(),
			FileKB:           float64(res.TotalBytes) / 1024,
			EnergyJ:          res.Joules,
			AvgPSNR:          res.PSNR.Mean(),
			BadPixels:        res.TotalBadPix,
			Trials:           1,
		}
	}
	return out, nil
}
