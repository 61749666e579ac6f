package experiment

import (
	"fmt"
	"math"
	"strings"

	"pbpair/internal/analytic"
	"pbpair/internal/bitcache"
	"pbpair/internal/codec"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/metrics"
	"pbpair/internal/network"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
)

// AnalyticSpec describes the closed-form counterpart of a SimSpec: the
// loss process to integrate over and the measurement knobs, with no
// channel instance and no seed — the analytic engine has nothing to
// sample. The zero value evaluates loss-free transmission with default
// MTU, device profile and thresholds.
type AnalyticSpec struct {
	Name string
	// LossRate is the i.i.d. packet-loss probability, the analytic twin
	// of a network.UniformLoss channel. Ignored when GE is set.
	LossRate float64
	// GE, when non-nil, integrates over a Gilbert–Elliott chain with
	// these parameters instead (the twin of network.GilbertElliott).
	GE *network.GEConfig
	// MTU for packetisation (default network.DefaultMTU); must match
	// the simulate phase it is compared against.
	MTU int
	// Profile is the energy model device (default energy.IPAQ).
	Profile energy.Profile
	// BadPixelThreshold for the expected bad-pixel metric (default
	// metrics.DefaultBadPixelThreshold).
	BadPixelThreshold int
	// SimilarityScale for the recurrence's concealment-similarity term
	// (default core.DefaultSimilarityScale).
	SimilarityScale float64
}

// Validate rejects specs whose probabilities or measurement knobs are
// out of range (NaN included). The zero value is valid.
func (s AnalyticSpec) Validate() error {
	if s.GE == nil {
		if !(s.LossRate >= 0 && s.LossRate <= 1) {
			return fmt.Errorf("experiment: analytic spec %q: loss rate %v outside [0, 1]", s.Name, s.LossRate)
		}
	} else {
		for _, p := range []float64{s.GE.PGoodToBad, s.GE.PBadToGood, s.GE.LossGood, s.GE.LossBad} {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("experiment: analytic spec %q: Gilbert–Elliott probability %v outside [0, 1]", s.Name, p)
			}
		}
	}
	if s.MTU < 0 {
		return fmt.Errorf("experiment: analytic spec %q: MTU %d negative", s.Name, s.MTU)
	}
	if s.BadPixelThreshold < 0 {
		return fmt.Errorf("experiment: analytic spec %q: bad-pixel threshold %d negative", s.Name, s.BadPixelThreshold)
	}
	if math.IsNaN(s.SimilarityScale) || s.SimilarityScale < 0 {
		return fmt.Errorf("experiment: analytic spec %q: similarity scale %v invalid", s.Name, s.SimilarityScale)
	}
	return nil
}

// loss builds the analytic loss process the spec describes.
func (s AnalyticSpec) loss() (analytic.Loss, error) {
	if s.GE != nil {
		return analytic.NewGE(*s.GE)
	}
	return analytic.NewIID(s.LossRate)
}

// modelConfig maps the spec's measurement knobs onto the extraction
// config.
func (s AnalyticSpec) modelConfig() analytic.Config {
	return analytic.Config{
		MTU:               s.MTU,
		SimilarityScale:   s.SimilarityScale,
		BadPixelThreshold: s.BadPixelThreshold,
	}
}

// AnalyticResult mirrors Result for the analytic backend: expectations
// in place of sampled outcomes, plus the same energy pricing (the
// encode-phase tally is loss-independent, so Joules is exact, not an
// expectation).
type AnalyticResult struct {
	Name   string
	Scheme string
	Frames int

	ExpPSNR      metrics.Series // per-frame PSNR of the expected SSE
	ExpBadPixels metrics.Series // per-frame expected bad pixels

	ExpBadPixTotal  float64
	ExpConcealedMBs float64
	ExpPacketsLost  float64
	ExpLostFrames   float64

	PacketsSent      int
	TotalBytes       int
	IntraMBsPerFrame float64
	MeanSigma        float64

	Counters  energy.Counters
	Breakdown energy.Breakdown
	Joules    float64
}

// ExtractModel builds the analytic model of an encoded sequence with
// the spec's measurement knobs. Extract once, then AnalyzeModel per
// loss point — the split the sweep drivers use to amortise the decode.
func ExtractModel(seq *codec.EncodedSequence, src synth.Source, spec AnalyticSpec) (*analytic.Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return analytic.Extract(seq, src, spec.modelConfig())
}

// AnalyzeModel evaluates an extracted model under the spec's loss
// process and prices it under the spec's device profile.
func AnalyzeModel(m *analytic.Model, spec AnalyticSpec) (*AnalyticResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	loss, err := spec.loss()
	if err != nil {
		return nil, err
	}
	rep, err := m.Evaluate(loss)
	if err != nil {
		return nil, err
	}
	profile := spec.Profile
	if profile.Name == "" {
		profile = energy.IPAQ
	}
	res := &AnalyticResult{
		Name:             spec.Name,
		Scheme:           rep.Scheme,
		Frames:           rep.Frames,
		ExpPSNR:          rep.ExpPSNR,
		ExpBadPixels:     rep.ExpBadPixels,
		ExpBadPixTotal:   rep.ExpBadPixTotal,
		ExpConcealedMBs:  rep.ExpConcealedMBs,
		ExpPacketsLost:   rep.ExpPacketsLost,
		ExpLostFrames:    rep.ExpLostFrames,
		PacketsSent:      rep.PacketsSent,
		TotalBytes:       rep.TotalBytes,
		IntraMBsPerFrame: m.IntraMBsPerFrame(),
		MeanSigma:        rep.MeanSigma,
		Counters:         rep.Counters,
	}
	res.Breakdown = profile.Decompose(rep.Counters)
	res.Joules = res.Breakdown.Total()
	return res, nil
}

// Analyze is the analytic backend's Simulate: one extraction plus one
// evaluation. For grids over many loss points of one encode, use
// ExtractModel + AnalyzeModel to pay the extraction once.
func Analyze(seq *codec.EncodedSequence, src synth.Source, spec AnalyticSpec) (*AnalyticResult, error) {
	m, err := ExtractModel(seq, src, spec)
	if err != nil {
		return nil, err
	}
	return AnalyzeModel(m, spec)
}

// AnalyticSweepConfig parameterises the closed-form operating-point
// grid: the full Intra_Th × α (encoder loss estimate) × loss-rate ×
// content cross product. One encode+extraction is paid per
// (regime, α, Intra_Th); every loss rate then costs microseconds,
// which is what makes the four-axis grid tractable where the
// Monte-Carlo sweep stops at two axes.
type AnalyticSweepConfig struct {
	Frames      int
	QP          int
	SearchRange int
	IntraThs    []float64
	// PLRs are the encoder-side loss estimates (the recurrence's α at
	// encode time) — a PBPAIR planner input, hence an encode axis.
	PLRs []float64
	// LossRates are the channel-side i.i.d. loss rates the models are
	// evaluated under — a free axis (default: the PLRs list), so the
	// grid exposes mismatch between the encoder's estimate and the
	// channel's truth.
	LossRates []float64
	// Regimes lists the content axis (default: foreman).
	Regimes []synth.Regime
	Profile energy.Profile
	MTU     int
	// Workers bounds the encode+extraction fan-out. <= 0 selects
	// parallel.DefaultWorkers; results are identical for every value.
	Workers int
	// Cache, when non-nil, memoizes encodes by content fingerprint.
	Cache *bitcache.Store
}

// WithDefaults fills zero fields with their documented defaults.
func (c AnalyticSweepConfig) WithDefaults() AnalyticSweepConfig {
	if c.Frames == 0 {
		c.Frames = 60
	}
	if c.QP == 0 {
		c.QP = 8
	}
	if len(c.IntraThs) == 0 {
		c.IntraThs = []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1}
	}
	if len(c.PLRs) == 0 {
		c.PLRs = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if len(c.LossRates) == 0 {
		c.LossRates = c.PLRs
	}
	if len(c.Regimes) == 0 {
		c.Regimes = []synth.Regime{synth.RegimeForeman}
	}
	if c.Profile.Name == "" {
		c.Profile = energy.IPAQ
	}
	return c
}

// AnalyticPoint is one cell of the four-axis analytic grid.
type AnalyticPoint struct {
	Regime           string
	IntraTh          float64
	PLR              float64 // encoder's loss estimate α
	LossRate         float64 // channel's i.i.d. loss rate
	IntraMBsPerFrame float64
	FileKB           float64
	EnergyJ          float64
	ExpPSNR          float64 // mean over frames
	ExpBadPixels     float64 // total over frames
	ExpConcealedMBs  float64
	ExpLostFrames    float64
}

// AnalyticSweep runs the full four-axis grid. Encodes (and their
// extractions) fan out in parallel, deduplicated by (regime, α,
// Intra_Th); evaluations run serially — they are three orders of
// magnitude cheaper than either phase. The returned order matches the
// serial nested loops (regime, α, Intra_Th, loss rate), identical for
// every worker count.
func AnalyticSweep(cfg AnalyticSweepConfig) ([]AnalyticPoint, error) {
	cfg = cfg.WithDefaults()
	for _, rate := range cfg.LossRates {
		if !(rate >= 0 && rate <= 1) {
			return nil, fmt.Errorf("experiment: analytic sweep loss rate %v outside [0, 1]", rate)
		}
	}

	// One encode+extraction per (regime, α, Intra_Th).
	type encodeJob struct {
		regime synth.Regime
		plr    float64
		th     float64
	}
	var jobs []encodeJob
	for _, regime := range cfg.Regimes {
		for _, plr := range cfg.PLRs {
			for _, th := range cfg.IntraThs {
				jobs = append(jobs, encodeJob{regime: regime, plr: plr, th: th})
			}
		}
	}
	baseSpec := AnalyticSpec{MTU: cfg.MTU, Profile: cfg.Profile}
	models, err := parallel.Map(cfg.Workers, len(jobs), func(i int) (*analytic.Model, error) {
		job := jobs[i]
		src := synth.Shared(job.regime)
		gridRows, gridCols := mbGrid(src)
		seq, err := Encode(cfg.Cache, EncodeSpec{
			Regime: job.regime, Frames: cfg.Frames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: job.th, PLR: job.plr}),
		})
		if err != nil {
			return nil, err
		}
		return ExtractModel(seq, src, baseSpec)
	})
	if err != nil {
		return nil, err
	}

	out := make([]AnalyticPoint, 0, len(jobs)*len(cfg.LossRates))
	for i, job := range jobs {
		src := synth.Shared(job.regime)
		for _, rate := range cfg.LossRates {
			spec := baseSpec
			spec.Name = fmt.Sprintf("analytic/%s/th%.2f/plr%.2f/loss%.2f", src.Name(), job.th, job.plr, rate)
			spec.LossRate = rate
			res, err := AnalyzeModel(models[i], spec)
			if err != nil {
				return nil, err
			}
			out = append(out, AnalyticPoint{
				Regime:           src.Name(),
				IntraTh:          job.th,
				PLR:              job.plr,
				LossRate:         rate,
				IntraMBsPerFrame: res.IntraMBsPerFrame,
				FileKB:           float64(res.TotalBytes) / 1024,
				EnergyJ:          res.Joules,
				ExpPSNR:          res.ExpPSNR.Mean(),
				ExpBadPixels:     res.ExpBadPixTotal,
				ExpConcealedMBs:  res.ExpConcealedMBs,
				ExpLostFrames:    res.ExpLostFrames,
			})
		}
	}
	return out, nil
}

// AnalyticSweepCSV renders analytic grid points in the CSV layout of
// cmd/pbpair-sweep's -analytic mode.
func AnalyticSweepCSV(points []AnalyticPoint) string {
	var b strings.Builder
	b.WriteString("regime,intra_th,plr,loss_rate,intra_mbs_per_frame,file_kb,energy_j,exp_psnr_db,exp_bad_pixels,exp_concealed_mbs,exp_lost_frames\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%.3f,%.2f,%.1f,%.4f,%.2f,%.1f,%.1f,%.3f\n",
			p.Regime, p.IntraTh, p.PLR, p.LossRate, p.IntraMBsPerFrame,
			p.FileKB, p.EnergyJ, p.ExpPSNR, p.ExpBadPixels, p.ExpConcealedMBs, p.ExpLostFrames)
	}
	return b.String()
}

// AnalyticBankConfig parameterises BuildAnalyticBank: one candidate
// encode per Intra_Th, all sharing the content, frame budget and codec
// knobs, priced under one device profile.
type AnalyticBankConfig struct {
	Regime      synth.Regime
	Frames      int
	QP          int
	SearchRange int
	// IntraThs lists the candidate thresholds (default: the analytic
	// sweep's threshold axis).
	IntraThs []float64
	// PLR is the encoder-side loss estimate the candidates are encoded
	// with. The bank re-evaluates every candidate at each queried
	// channel rate, so this only shapes the refresh pattern baked into
	// the bitstreams (default 0.1, the paper's midpoint).
	PLR float64
	// MarginDB is the bank's quality margin (<= 0 selects
	// analytic.DefaultQualityMarginDB).
	MarginDB float64
	Profile  energy.Profile
	MTU      int
	// Workers bounds the encode+extraction fan-out (<= 0 selects
	// parallel.DefaultWorkers).
	Workers int
	// Cache, when non-nil, memoizes the candidate encodes.
	Cache *bitcache.Store
}

// BuildAnalyticBank encodes one PBPAIR candidate per threshold,
// extracts its analytic model and prices its encode energy, returning
// the bank that serves adapt.PredictiveQuality as the model-driven
// inner loop: Bank.BestIntraTh evaluates every candidate's expected
// distortion at the queried loss rate in closed form — microseconds
// per retune, no channel simulation.
func BuildAnalyticBank(cfg AnalyticBankConfig) (*analytic.Bank, error) {
	if cfg.Regime == 0 {
		cfg.Regime = synth.RegimeForeman
	}
	if cfg.Frames == 0 {
		cfg.Frames = 30
	}
	if cfg.QP == 0 {
		cfg.QP = 8
	}
	if len(cfg.IntraThs) == 0 {
		cfg.IntraThs = []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1}
	}
	profile := cfg.Profile
	if profile.Name == "" {
		profile = energy.IPAQ
	}
	if !(cfg.PLR >= 0 && cfg.PLR <= 1) {
		return nil, fmt.Errorf("experiment: analytic bank PLR %v outside [0, 1]", cfg.PLR)
	}

	src := synth.Shared(cfg.Regime)
	gridRows, gridCols := mbGrid(src)
	spec := AnalyticSpec{MTU: cfg.MTU, Profile: profile}
	cands, err := parallel.Map(cfg.Workers, len(cfg.IntraThs), func(i int) (analytic.Candidate, error) {
		th := cfg.IntraThs[i]
		seq, err := Encode(cfg.Cache, EncodeSpec{
			Regime: cfg.Regime, Frames: cfg.Frames,
			QP: cfg.QP, SearchRange: cfg.SearchRange,
			Scheme: SchemePBPAIR(core.Config{Rows: gridRows, Cols: gridCols, IntraTh: th, PLR: cfg.PLR}),
		})
		if err != nil {
			return analytic.Candidate{}, err
		}
		model, err := ExtractModel(seq, src, spec)
		if err != nil {
			return analytic.Candidate{}, err
		}
		return analytic.Candidate{
			IntraTh: th,
			EnergyJ: profile.Decompose(model.Counters()).Total(),
			Model:   model,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return analytic.NewBank(cands, cfg.MarginDB)
}
