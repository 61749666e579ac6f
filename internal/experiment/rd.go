package experiment

import (
	"fmt"

	"pbpair/internal/bitcache"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
)

// Rate–distortion analysis: sweeping QP maps out each scheme's
// compression frontier. Resilience costs bits, so at equal QP a
// refresh scheme sits right of the NO curve; the horizontal gap is the
// price of robustness the paper's §4.3 trade-off discussion describes.

// RDPoint is one (rate, distortion) sample of a scheme's curve.
type RDPoint struct {
	QP     int
	KBytes float64 // total encoded size
	PSNR   float64 // loss-free decoded quality (encoder reconstruction fidelity)
}

// RDConfig parameterises an RD sweep.
type RDConfig struct {
	Regime      synth.Regime
	Frames      int
	SearchRange int
	QPs         []int
	// Scheme is the resilience scheme under test. Required.
	Scheme SchemeSpec
	// Workers bounds the experiment fan-out across QP points: <= 0
	// selects parallel.DefaultWorkers, 1 runs serially. The curve is
	// identical for every value.
	Workers int
	// Cache, when non-nil, memoizes each QP point's encode by content
	// fingerprint.
	Cache *bitcache.Store
}

// RDCurve encodes the sequence at each QP and returns the loss-free
// curve in QP order. Each QP point is one encode and one loss-free
// Simulate; the points fan out across cfg.Workers goroutines.
func RDCurve(cfg RDConfig) ([]RDPoint, error) {
	if cfg.Scheme.Kind == 0 {
		return nil, fmt.Errorf("experiment: RDCurve needs a Scheme")
	}
	if cfg.Regime == 0 {
		cfg.Regime = synth.RegimeForeman
	}
	if cfg.Frames == 0 {
		cfg.Frames = 30
	}
	if len(cfg.QPs) == 0 {
		cfg.QPs = []int{2, 4, 8, 12, 16, 24, 31}
	}
	src := synth.Shared(cfg.Regime)
	return parallel.Map(cfg.Workers, len(cfg.QPs), func(i int) (RDPoint, error) {
		qp := cfg.QPs[i]
		seq, err := Encode(cfg.Cache, EncodeSpec{
			Regime: cfg.Regime, Frames: cfg.Frames,
			QP: qp, SearchRange: cfg.SearchRange,
			Scheme: cfg.Scheme,
		})
		if err != nil {
			return RDPoint{}, err
		}
		res, err := Simulate(seq, src, SimSpec{Name: fmt.Sprintf("rd/qp%d", qp)})
		if err != nil {
			return RDPoint{}, err
		}
		return RDPoint{
			QP:     qp,
			KBytes: float64(res.TotalBytes) / 1024,
			PSNR:   res.PSNR.Mean(),
		}, nil
	})
}

// BDRateGap is a coarse Bjøntegaard-style comparison: the mean
// horizontal (rate) ratio between two curves at equal quality,
// computed by linear interpolation of curve b onto curve a's PSNR
// samples. A value of 1.3 means b needs ~30% more bits for the same
// quality. Points outside b's PSNR range are skipped; if nothing
// overlaps, an error is returned.
func BDRateGap(a, b []RDPoint) (float64, error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, fmt.Errorf("experiment: BD rate gap needs >= 2 points per curve")
	}
	var ratios []float64
	for _, pa := range a {
		rb, ok := interpolateRate(b, pa.PSNR)
		if !ok {
			continue
		}
		if pa.KBytes > 0 {
			ratios = append(ratios, rb/pa.KBytes)
		}
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("experiment: RD curves do not overlap in quality")
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	return sum / float64(len(ratios)), nil
}

// interpolateRate returns curve's rate at the given PSNR via linear
// interpolation between bracketing points (curves are monotone:
// lower QP → more bits, higher PSNR).
func interpolateRate(curve []RDPoint, psnr float64) (float64, bool) {
	for i := 0; i+1 < len(curve); i++ {
		p1, p2 := curve[i], curve[i+1]
		lo, hi := p1, p2
		if lo.PSNR > hi.PSNR {
			lo, hi = hi, lo
		}
		if psnr < lo.PSNR || psnr > hi.PSNR {
			continue
		}
		if hi.PSNR == lo.PSNR {
			return lo.KBytes, true
		}
		t := (psnr - lo.PSNR) / (hi.PSNR - lo.PSNR)
		return lo.KBytes + t*(hi.KBytes-lo.KBytes), true
	}
	return 0, false
}
