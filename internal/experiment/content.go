package experiment

import (
	"fmt"

	"pbpair/internal/bitcache"
	"pbpair/internal/core"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
)

// Content-sensitivity study: the paper evaluates three sequences; this
// table extends the same comparison to the two extension regimes
// (hall-monitor surveillance and mobile-style multi-object motion),
// probing where each scheme's assumptions break. PGOP's fixed sweep
// wastes refresh on hall's static scene; AIR's fixed budget drowns on
// garden; PBPAIR's content term adapts to both.

// ContentRow is one (regime, scheme) cell.
type ContentRow struct {
	Sequence  string
	Scheme    string
	AvgPSNR   float64
	BadPixels int
	FileKB    float64
	EnergyJ   float64
	IntraRate float64 // intra MBs per frame
}

// ContentConfig parameterises the study.
type ContentConfig struct {
	Frames      int
	PLR         float64
	QP          int
	SearchRange int
	Seed        uint64
	IntraTh     float64 // PBPAIR threshold (no size calibration here)
	Paranoia    float64 // PBPAIR staleness bound (see core.Config.Paranoia)
	Regimes     []synth.Regime
	// Workers bounds the experiment fan-out across (regime, scheme)
	// cells: <= 0 selects parallel.DefaultWorkers, 1 runs serially.
	Workers int
	// Cache, when non-nil, memoizes encodes by content fingerprint.
	Cache *bitcache.Store
}

// WithDefaults fills zero fields.
func (c ContentConfig) WithDefaults() ContentConfig {
	if c.Frames == 0 {
		c.Frames = 60
	}
	if c.PLR == 0 {
		c.PLR = 0.10
	}
	if c.QP == 0 {
		c.QP = 8
	}
	if c.Seed == 0 {
		c.Seed = 808
	}
	if c.IntraTh == 0 {
		// Just above 1−PLR: for perfectly-concealable static content σ
		// holds steady at its startup value of 1−α, so a threshold of
		// exactly 1−α never refreshes it — and a lost first frame then
		// stays grey forever. A threshold slightly above forces exactly
		// one repair round after startup (σ rises to ≈1−α+α·sim and
		// stays there), which is the intended operating point.
		c.IntraTh = 1 - c.PLR + 0.02
	}
	if c.Paranoia == 0 {
		// Without it, a static region whose initial coding and repair
		// are both lost stays damaged forever (see core.Config.Paranoia)
		// — at 10% loss over static regimes that tail is common enough
		// to dominate a small study.
		c.Paranoia = 0.01
	}
	if len(c.Regimes) == 0 {
		c.Regimes = []synth.Regime{
			synth.RegimeHall, synth.RegimeAkiyo, synth.RegimeForeman,
			synth.RegimeMobile, synth.RegimeGarden,
		}
	}
	return c
}

// schemes returns the five schemes of the study, in row order, for one
// regime's macroblock grid.
func (c ContentConfig) schemes(regime synth.Regime) []SchemeSpec {
	gridRows, gridCols := mbGrid(synth.Shared(regime))
	return []SchemeSpec{
		SchemeNO(),
		SchemePBPAIR(core.Config{
			Rows: gridRows, Cols: gridCols,
			IntraTh: c.IntraTh, PLR: c.PLR,
			Paranoia: c.Paranoia,
		}),
		SchemePGOP(3, gridCols),
		SchemeGOP(3),
		SchemeAIR(24),
	}
}

// ContentTable runs the five schemes over the configured regimes.
// Each (regime, scheme) cell is one encode evaluated against one
// i.i.d. channel realization seeded Seed + regime — the same cell as
// Figure 5 at one trial. Cells follow the serial iteration order
// (regime outer, scheme inner) for every worker count.
func ContentTable(cfg ContentConfig) ([]ContentRow, error) {
	cfg = cfg.WithDefaults()
	type cell struct {
		regime synth.Regime
		scheme SchemeSpec
	}
	var cells []cell
	for _, regime := range cfg.Regimes {
		for _, scheme := range cfg.schemes(regime) {
			cells = append(cells, cell{regime: regime, scheme: scheme})
		}
	}
	return parallel.Map(cfg.Workers, len(cells), func(i int) (ContentRow, error) {
		c := cells[i]
		src := synth.Shared(c.regime)
		seq, err := Encode(cfg.Cache, EncodeSpec{
			Regime: c.regime, Frames: cfg.Frames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: c.scheme,
		})
		if err != nil {
			return ContentRow{}, err
		}
		mtr, err := SimBatch(seq, src, SimSpec{Name: fmt.Sprintf("content/%s/%s", src.Name(), c.scheme.Key())},
			BatchSpec{Trials: 1, Seed: cfg.Seed + uint64(c.regime), LossRate: cfg.PLR, Workers: 1})
		if err != nil {
			return ContentRow{}, err
		}
		return ContentRow{
			Sequence:  src.Name(),
			Scheme:    seq.Scheme,
			AvgPSNR:   mtr.LanePSNR[0],
			BadPixels: int(mtr.LaneBadPixels[0]),
			FileKB:    float64(mtr.TotalBytes) / 1024,
			EnergyJ:   mtr.Joules,
			IntraRate: intraRate(seq),
		}, nil
	})
}
