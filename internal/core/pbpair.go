// Package core implements PBPAIR — Probability Based Power Aware Intra
// Refresh — the paper's contribution (Section 3).
//
// PBPAIR maintains, per macroblock, a probability of correctness
// σ ∈ [0, 1]: the probability that the decoder's reconstruction of the
// macroblock is intact given the network packet-loss rate α and the
// prediction chain that produced it. The matrix drives two decisions:
//
//  1. Encoding-mode selection (§3.1.1): σ < Intra_Th ⇒ code the
//     macroblock intra, *before* motion estimation — skipping ME
//     entirely, which is where the energy saving comes from.
//  2. Motion-vector selection (§3.1.2): candidates referencing
//     low-probability areas are penalised, so an error-free candidate
//     with slightly higher SAD beats a likely-damaged one (Figure 3).
//
// After each frame the matrix is re-evaluated (§3.1.3):
//
//	inter: σᵏ = (1−α)·min(σ of related MBs) + α·sim·σᵏ⁻¹   (Formula 1)
//	intra: σᵏ = (1−α)·1                     + α·sim·σᵏ⁻¹   (Formula 2)
//
// where "related MBs" are the previous-frame macroblocks overlapped by
// the motion-compensated reference block and sim is the similarity
// factor of the decoder's concealment (for copy concealment:
// 1 − SAD(co-located)/SAD_max).
package core

import (
	"fmt"

	"pbpair/internal/codec"
	"pbpair/internal/motion"
	"pbpair/internal/video"
)

// Config parameterises a PBPAIR planner.
type Config struct {
	// Rows, Cols is the macroblock grid (9x11 for QCIF).
	Rows, Cols int

	// IntraTh is the user-expectation threshold on σ (§3.1): 0 disables
	// refresh entirely (maximum compression), 1 forces every macroblock
	// intra (maximum resilience). Must lie in [0, 1].
	IntraTh float64

	// PLR is the network packet-loss rate α in [0, 1].
	PLR float64

	// Lambda scales the probability penalty in motion-vector selection.
	// The candidate cost is SAD + Lambda·α·(1−σ_ref)·PenaltyScale.
	// Zero selects DefaultLambda; negative disables the penalty
	// (ablation: plain SAD selection).
	Lambda float64

	// PenaltyScale converts a probability deficit into SAD units. Zero
	// selects DefaultPenaltyScale (the maximum possible 16x16 SAD).
	PenaltyScale float64

	// DisableSimilarity drops the similarity term from the update
	// formulas (the Formula 3 approximation of §3.2) — an ablation and
	// the basis of the adaptive controller's closed form.
	DisableSimilarity bool

	// SimilarityScale is the per-pixel mean absolute difference at
	// which copy concealment is considered useless (sim = 0). The
	// paper derives sim "from [the] SAD value between macroblock
	// m^{k-1} and m^k" without fixing the normalisation; 255 would
	// saturate sim near 1 for all natural content, so the default
	// (DefaultSimilarityScale) uses a perceptual scale instead. Zero
	// selects the default.
	SimilarityScale float64

	// Paranoia, if positive, multiplies every σ by (1 − Paranoia) each
	// frame, bounding how long any macroblock can go unrefreshed. The
	// paper's formulas have a fixed point for perfectly-concealable
	// static content (σ never falls, so refresh never fires) — correct
	// in expectation but permanent in the unlucky tail where the
	// initial intra coding AND its repair are both lost: the encoder
	// then believes the region healthy forever. A paranoia of p forces
	// a refresh roughly every ln(σ*/Th)/p frames at the cost of
	// periodic intra traffic on static content. Zero (the default) is
	// paper-faithful.
	Paranoia float64
}

// Defaults for the motion-penalty reconstruction (the exact formula is
// in unavailable tech report [15]; see DESIGN.md).
const (
	DefaultLambda       = 1.0
	DefaultPenaltyScale = 255 * video.MBSize * video.MBSize // max 16x16 SAD

	// DefaultSimilarityScale: a co-located mean absolute difference of
	// 32 grey levels (out of 255) makes copy concealment useless.
	DefaultSimilarityScale = 32
)

// Normalized returns cfg with zero-value knobs replaced by their
// documented defaults (Lambda, PenaltyScale, SimilarityScale). New
// applies it before validating, so two configs with equal Normalized
// forms build planners with identical behaviour — the canonical form
// the experiment layer fingerprints for its bitstream cache.
func (cfg Config) Normalized() Config {
	if cfg.Lambda == 0 {
		cfg.Lambda = DefaultLambda
	}
	if cfg.PenaltyScale == 0 {
		cfg.PenaltyScale = DefaultPenaltyScale
	}
	if cfg.SimilarityScale == 0 {
		cfg.SimilarityScale = DefaultSimilarityScale
	}
	return cfg
}

// PBPAIR is the planner. It implements codec.ModePlanner.
type PBPAIR struct {
	cfg   Config
	sigma []float64 // σ of the previous frame's matrix, row-major
	plr   float64   // current α (adjustable via SetPLR)
	th    float64   // current Intra_Th (adjustable via SetIntraTh)
}

var _ codec.ModePlanner = (*PBPAIR)(nil)

// New validates cfg and returns a PBPAIR planner with an error-free
// initial matrix (σ = 1 everywhere, the paper's start state).
func New(cfg Config) (*PBPAIR, error) {
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return nil, fmt.Errorf("core: invalid macroblock grid %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.IntraTh < 0 || cfg.IntraTh > 1 {
		return nil, fmt.Errorf("core: Intra_Th %v outside [0, 1]", cfg.IntraTh)
	}
	if cfg.PLR < 0 || cfg.PLR > 1 {
		return nil, fmt.Errorf("core: PLR %v outside [0, 1]", cfg.PLR)
	}
	cfg = cfg.Normalized()
	if cfg.SimilarityScale < 0 {
		return nil, fmt.Errorf("core: similarity scale %v must be positive", cfg.SimilarityScale)
	}
	if cfg.Paranoia < 0 || cfg.Paranoia >= 1 {
		return nil, fmt.Errorf("core: paranoia %v outside [0, 1)", cfg.Paranoia)
	}
	p := &PBPAIR{
		cfg:   cfg,
		sigma: make([]float64, cfg.Rows*cfg.Cols),
		plr:   cfg.PLR,
		th:    cfg.IntraTh,
	}
	for i := range p.sigma {
		p.sigma[i] = 1
	}
	return p, nil
}

// Name implements codec.ModePlanner.
func (*PBPAIR) Name() string { return "PBPAIR" }

// Clone returns an independent deep copy of the planner: same
// configuration, same correctness matrix, same α and Intra_Th.
// Mutations of either copy never affect the other. The serving layer's
// encode farm forks a session lineage by cloning its planner alongside
// the encoder (codec.Encoder.Clone) so a diverging session continues
// bit-exactly from the shared state.
func (p *PBPAIR) Clone() *PBPAIR {
	cp := &PBPAIR{
		cfg:   p.cfg,
		sigma: make([]float64, len(p.sigma)),
		plr:   p.plr,
		th:    p.th,
	}
	copy(cp.sigma, p.sigma)
	return cp
}

// IntraTh returns the current threshold.
func (p *PBPAIR) IntraTh() float64 { return p.th }

// SetIntraTh adjusts the threshold at runtime — the knob the §3.2
// power-awareness extension (and the adapt package) turns. Values are
// clamped to [0, 1].
func (p *PBPAIR) SetIntraTh(th float64) {
	if th < 0 {
		th = 0
	}
	if th > 1 {
		th = 1
	}
	p.th = th
}

// PLR returns the current packet-loss rate α.
func (p *PBPAIR) PLR() float64 { return p.plr }

// SetPLR updates α from network feedback. Values are clamped to [0, 1].
func (p *PBPAIR) SetPLR(alpha float64) {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	p.plr = alpha
}

// Sigma returns a copy of the current correctness matrix, row-major.
func (p *PBPAIR) Sigma() []float64 {
	out := make([]float64, len(p.sigma))
	copy(out, p.sigma)
	return out
}

// SigmaMap renders the correctness matrix as an ASCII heat map, one
// digit per macroblock: '9' means σ ≥ 0.9 (healthy), '0' means σ < 0.1
// (about to refresh). Used by debugging output and the examples.
func (p *PBPAIR) SigmaMap() string {
	buf := make([]byte, 0, (p.cfg.Cols+1)*p.cfg.Rows)
	for r := 0; r < p.cfg.Rows; r++ {
		for c := 0; c < p.cfg.Cols; c++ {
			d := int(p.sigma[r*p.cfg.Cols+c] * 10)
			if d > 9 {
				d = 9
			}
			if d < 0 {
				d = 0
			}
			buf = append(buf, byte('0'+d))
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}

// MeanSigma returns the average probability of correctness — a scalar
// view of how robust the encoder currently believes the stream is.
func (p *PBPAIR) MeanSigma() float64 {
	var sum float64
	for _, v := range p.sigma {
		sum += v
	}
	return sum / float64(len(p.sigma))
}

// PlanFrame implements codec.ModePlanner: PBPAIR never inserts
// I-frames — refresh is distributed across macroblocks.
func (*PBPAIR) PlanFrame(int) codec.FrameType { return codec.PFrame }

// PreME implements the §3.1.1 early decision: a macroblock whose
// probability of correctness has fallen below Intra_Th is coded intra
// with no motion estimation.
func (p *PBPAIR) PreME(ctx *codec.MBContext) bool {
	return p.sigma[ctx.Index] < p.th
}

// MEPenalty implements the §3.1.2 probability-aware motion-vector
// selection: candidates are scored SAD + λ·α·(1 − σ_ref(mv))·scale,
// where σ_ref(mv) is the minimum correctness of the previous-frame
// macroblocks the candidate block overlaps. The penalty depends only
// on the vector, so the search's early-termination pruning stays
// exact.
//
// The penalty depends on a vector only through the rectangle of
// macroblocks its reference block overlaps. For |dx|, |dy| < MBSize
// that rectangle is the co-located macroblock widened, per axis, by
// the neighbour on the side of the component's sign — one of nine
// (sign dx, sign dy) classes. Those nine penalties are computed here,
// once per macroblock, and the returned PenaltyFunc looks them up;
// longer vectors (a search range of MBSize or more) evaluate
// relatedMin directly. The PenaltyFunc only reads planner state, as
// the sharded search requires.
func (p *PBPAIR) MEPenalty(ctx *codec.MBContext) motion.PenaltyFunc {
	if p.cfg.Lambda < 0 || p.plr == 0 {
		return nil
	}
	row, col := ctx.Row, ctx.Col
	weight := p.cfg.Lambda * p.plr * p.cfg.PenaltyScale
	var table [9]int32
	for sy := -1; sy <= 1; sy++ {
		for sx := -1; sx <= 1; sx++ {
			table[signClass(sx, sy)] = p.penalty(row, col, weight, motion.Vector{X: sx, Y: sy})
		}
	}
	return func(mv motion.Vector) int32 {
		if mv.X <= -video.MBSize || mv.X >= video.MBSize || mv.Y <= -video.MBSize || mv.Y >= video.MBSize {
			return p.penalty(row, col, weight, mv)
		}
		return table[signClass(mv.X, mv.Y)]
	}
}

// penalty is the §3.1.2 penalty weight·(1 − σ_ref(mv)) of vector mv
// for macroblock (row, col), truncated to int32 and clamped at 0.
func (p *PBPAIR) penalty(row, col int, weight float64, mv motion.Vector) int32 {
	pen := int32(weight * (1 - p.relatedMin(row, col, mv)))
	if pen < 0 {
		pen = 0
	}
	return pen
}

// signClass indexes the nine (sign x, sign y) classes of a vector:
// 3·(sign y + 1) + (sign x + 1).
func signClass(x, y int) int {
	return 3*(sign(y)+1) + sign(x) + 1
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// relatedMin returns min σ over the previous-frame macroblocks
// overlapped by the reference block of macroblock (row, col) displaced
// by mv — the "related MBs" of Formula 1.
func (p *PBPAIR) relatedMin(row, col int, mv motion.Vector) float64 {
	x := col*video.MBSize + mv.X
	y := row*video.MBSize + mv.Y
	c0 := floorDiv(x, video.MBSize)
	c1 := floorDiv(x+video.MBSize-1, video.MBSize)
	r0 := floorDiv(y, video.MBSize)
	r1 := floorDiv(y+video.MBSize-1, video.MBSize)
	minSigma := 1.0
	for r := r0; r <= r1; r++ {
		if r < 0 || r >= p.cfg.Rows {
			continue
		}
		for c := c0; c <= c1; c++ {
			if c < 0 || c >= p.cfg.Cols {
				continue
			}
			if s := p.sigma[r*p.cfg.Cols+c]; s < minSigma {
				minSigma = s
			}
		}
	}
	return minSigma
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// PostME implements codec.ModePlanner. PBPAIR makes no post-ME
// revisions: its whole point is deciding before ME.
func (*PBPAIR) PostME(*codec.FramePlan) {}

// Update re-evaluates the correctness matrix from the encoded frame
// (Formulas 1 and 2). The similarity factor models the decoder's copy
// concealment: sim = 1 − SAD(co-located previous vs current
// reconstruction)/SAD_max, clamped to [0, 1].
func (p *PBPAIR) Update(result *codec.FrameResult) {
	alpha := p.plr
	plan := result.Plan
	next := make([]float64, len(p.sigma))
	for i := range plan.MBs {
		row, col := i/plan.Cols, i%plan.Cols
		sim := 0.0
		if !p.cfg.DisableSimilarity && result.PrevRecon != nil {
			sim = similarity(result.PrevRecon, result.Recon, row, col, p.cfg.SimilarityScale)
		}
		prev := p.sigma[i]
		var s float64
		switch plan.MBs[i].Mode {
		case codec.ModeIntra:
			s = (1-alpha)*1 + alpha*sim*prev
		default: // inter or skip: prediction chains through related MBs
			s = (1-alpha)*p.relatedMin(row, col, plan.MBs[i].MV) + alpha*sim*prev
		}
		if p.cfg.Paranoia > 0 {
			s *= 1 - p.cfg.Paranoia
		}
		next[i] = clamp01(s)
	}
	copy(p.sigma, next)
}

// similarity is the copy-concealment similarity factor between the
// co-located macroblocks of two reconstructions: 1 at identity,
// falling linearly to 0 when the mean absolute difference reaches
// scale grey levels.
func similarity(prev, cur *video.Frame, row, col int, scale float64) float64 {
	x := col * video.MBSize
	y := row * video.MBSize
	w := cur.Width
	var sad int64
	for r := 0; r < video.MBSize; r++ {
		a := cur.Y[(y+r)*w+x:]
		b := prev.Y[(y+r)*w+x:]
		for i := 0; i < video.MBSize; i++ {
			d := int64(a[i]) - int64(b[i])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	mad := float64(sad) / (video.MBSize * video.MBSize)
	return clamp01(1 - mad/scale)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
