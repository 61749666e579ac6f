package experiment

import (
	"fmt"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// Error-propagation profiling: the quantity behind every figure in the
// paper is how a single loss decays over the following frames under
// each refresh scheme. Propagation runs the same encode twice — clean
// and with exactly one lost frame — and characterises the PSNR gap's
// decay.

// PropagationResult characterises one scheme's response to a single
// frame loss.
type PropagationResult struct {
	Scheme string
	// GapDB[k] is clean PSNR − lossy PSNR at k frames after the event
	// (index 0 = the lost frame itself).
	GapDB []float64
	// PeakGapDB is the largest gap observed.
	PeakGapDB float64
	// HalfLife is the number of frames after the event until the gap
	// first drops below half its peak (-1 if never within the window).
	HalfLife int
	// ResidualDB is the gap at the end of the window — how much damage
	// the scheme never repaired.
	ResidualDB float64
}

// PropagationConfig parameterises a profile run.
type PropagationConfig struct {
	Regime      synth.Regime
	Frames      int // total encode length
	Event       int // frame lost (must be >= 1, < Frames)
	QP          int
	SearchRange int
	Scheme      SchemeSpec // required
}

// Propagation measures one scheme's single-loss decay profile.
func Propagation(cfg PropagationConfig) (*PropagationResult, error) {
	if cfg.Scheme.Kind == 0 {
		return nil, fmt.Errorf("experiment: Propagation needs a Scheme")
	}
	if cfg.Regime == 0 {
		cfg.Regime = synth.RegimeForeman
	}
	if cfg.Frames == 0 {
		cfg.Frames = 40
	}
	if cfg.Event <= 0 {
		cfg.Event = cfg.Frames / 4
	}
	if cfg.Event >= cfg.Frames {
		return nil, fmt.Errorf("experiment: loss event %d outside the %d-frame window", cfg.Event, cfg.Frames)
	}
	src := synth.Shared(cfg.Regime)

	// One encode, two simulations: the clean and lossy traces come from
	// the same bitstream, which is exactly the paper's premise (the
	// encoder never sees the channel).
	seq, err := Encode(nil, EncodeSpec{
		Regime: cfg.Regime, Frames: cfg.Frames,
		QP: cfg.QP, SearchRange: cfg.SearchRange,
		Scheme: cfg.Scheme,
	})
	if err != nil {
		return nil, err
	}
	clean, err := Simulate(seq, src, SimSpec{Name: "propagation"})
	if err != nil {
		return nil, err
	}
	lossy, err := Simulate(seq, src, SimSpec{Name: "propagation", Channel: network.NewSchedule(cfg.Event)})
	if err != nil {
		return nil, err
	}

	cp, lp := clean.PSNR.Values(), lossy.PSNR.Values()
	res := &PropagationResult{Scheme: lossy.Scheme, HalfLife: -1}
	for k := cfg.Event; k < cfg.Frames; k++ {
		gap := cp[k] - lp[k]
		if gap < 0 {
			gap = 0
		}
		res.GapDB = append(res.GapDB, gap)
		if gap > res.PeakGapDB {
			res.PeakGapDB = gap
		}
	}
	for k, gap := range res.GapDB {
		if gap <= res.PeakGapDB/2 && res.PeakGapDB > 0 && k > 0 {
			res.HalfLife = k
			break
		}
	}
	res.ResidualDB = res.GapDB[len(res.GapDB)-1]
	return res, nil
}
