package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pbpair/internal/codec"
	"pbpair/internal/motion"
	"pbpair/internal/video"
)

func mustNew(t *testing.T, cfg Config) *PBPAIR {
	t.Helper()
	if cfg.Rows == 0 {
		cfg.Rows = 9
	}
	if cfg.Cols == 0 {
		cfg.Cols = 11
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero grid", Config{IntraTh: 0.5}},
		{"negative th", Config{Rows: 9, Cols: 11, IntraTh: -0.1}},
		{"th above one", Config{Rows: 9, Cols: 11, IntraTh: 1.1}},
		{"negative plr", Config{Rows: 9, Cols: 11, IntraTh: 0.5, PLR: -0.2}},
		{"plr above one", Config{Rows: 9, Cols: 11, IntraTh: 0.5, PLR: 1.2}},
	}
	for _, tt := range tests {
		if _, err := New(tt.cfg); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

func TestInitialMatrixErrorFree(t *testing.T) {
	p := mustNew(t, Config{IntraTh: 0.5, PLR: 0.1})
	for i, s := range p.Sigma() {
		if s != 1 {
			t.Fatalf("σ[%d] = %v, want 1 (error-free start)", i, s)
		}
	}
	if p.MeanSigma() != 1 {
		t.Fatalf("MeanSigma = %v", p.MeanSigma())
	}
}

func TestPreMEThreshold(t *testing.T) {
	p := mustNew(t, Config{IntraTh: 0.5, PLR: 0.1})
	p.sigma[7] = 0.3
	p.sigma[8] = 0.5
	if !p.PreME(&codec.MBContext{Index: 7}) {
		t.Fatal("σ=0.3 < Th=0.5 should force intra")
	}
	if p.PreME(&codec.MBContext{Index: 8}) {
		t.Fatal("σ=0.5 is not strictly below Th=0.5")
	}
}

// allInterResult builds a FrameResult where every MB was coded inter
// with the given vector; PrevRecon nil so similarity contributes zero.
func allInterResult(rows, cols int, mv motion.Vector) *codec.FrameResult {
	plan := &codec.FramePlan{Rows: rows, Cols: cols, MBs: make([]codec.MBPlan, rows*cols)}
	for i := range plan.MBs {
		plan.MBs[i] = codec.MBPlan{Mode: codec.ModeInter, MV: mv}
	}
	return &codec.FrameResult{Plan: plan}
}

// TestFormula3Decay verifies the §3.2 closed form: with zero
// similarity and all-inter zero-motion coding, σᵏ = (1−α)ᵏ.
func TestFormula3Decay(t *testing.T) {
	const alpha = 0.1
	p := mustNew(t, Config{IntraTh: 0, PLR: alpha, DisableSimilarity: true})
	for k := 1; k <= 10; k++ {
		p.Update(allInterResult(9, 11, motion.Vector{}))
		want := math.Pow(1-alpha, float64(k))
		for i, s := range p.Sigma() {
			if math.Abs(s-want) > 1e-12 {
				t.Fatalf("frame %d σ[%d] = %v, want (1−α)^%d = %v", k, i, s, k, want)
			}
		}
	}
}

// TestIntraRefreshRestoresSigma: Formula 2 with sim=0 gives σ = 1−α
// for an intra MB regardless of how degraded it was.
func TestIntraRefreshRestoresSigma(t *testing.T) {
	const alpha = 0.2
	p := mustNew(t, Config{IntraTh: 0, PLR: alpha, DisableSimilarity: true})
	for i := range p.sigma {
		p.sigma[i] = 0.01
	}
	plan := &codec.FramePlan{Rows: 9, Cols: 11, MBs: make([]codec.MBPlan, 99)}
	for i := range plan.MBs {
		plan.MBs[i].Mode = codec.ModeIntra
	}
	p.Update(&codec.FrameResult{Plan: plan})
	for i, s := range p.Sigma() {
		if math.Abs(s-(1-alpha)) > 1e-12 {
			t.Fatalf("σ[%d] = %v, want %v", i, s, 1-alpha)
		}
	}
}

// TestSigmaBoundsProperty: the DESIGN.md invariant — for any α, any
// mode pattern, any motion vectors and any starting matrix, every σ
// stays in [0, 1].
func TestSigmaBoundsProperty(t *testing.T) {
	prop := func(seed int64, alphaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := float64(alphaRaw) / 255
		p, err := New(Config{Rows: 9, Cols: 11, IntraTh: 0.5, PLR: alpha})
		if err != nil {
			return false
		}
		for i := range p.sigma {
			p.sigma[i] = rng.Float64()
		}
		plan := &codec.FramePlan{Rows: 9, Cols: 11, MBs: make([]codec.MBPlan, 99)}
		for i := range plan.MBs {
			switch rng.Intn(3) {
			case 0:
				plan.MBs[i].Mode = codec.ModeIntra
			case 1:
				plan.MBs[i].Mode = codec.ModeSkip
			default:
				plan.MBs[i].Mode = codec.ModeInter
				plan.MBs[i].MV = motion.Vector{X: rng.Intn(31) - 15, Y: rng.Intn(31) - 15}
			}
		}
		// Random reconstructions exercise the similarity path.
		prev := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
		cur := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
		for i := range prev.Y {
			prev.Y[i] = uint8(rng.Intn(256))
			cur.Y[i] = uint8(rng.Intn(256))
		}
		p.Update(&codec.FrameResult{Plan: plan, PrevRecon: prev, Recon: cur})
		for _, s := range p.Sigma() {
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestInterInheritsMinOfRelated: an inter MB's σ is driven by the
// weakest previous-frame MB its reference overlaps.
func TestInterInheritsMinOfRelated(t *testing.T) {
	p := mustNew(t, Config{IntraTh: 0, PLR: 0.0, DisableSimilarity: true})
	// Damage MB (2,3); α=0 makes σᵏ = min(related σ) exactly.
	p.sigma[2*11+3] = 0.25

	// MB (2,4) with mv.X = -8 overlaps columns 3 and 4.
	plan := &codec.FramePlan{Rows: 9, Cols: 11, MBs: make([]codec.MBPlan, 99)}
	for i := range plan.MBs {
		plan.MBs[i].Mode = codec.ModeSkip // co-located references
	}
	idx := 2*11 + 4
	plan.MBs[idx].Mode = codec.ModeInter
	plan.MBs[idx].MV = motion.Vector{X: -8}
	p.Update(&codec.FrameResult{Plan: plan})

	if got := p.Sigma()[idx]; got != 0.25 {
		t.Fatalf("σ of MB referencing damaged area = %v, want 0.25", got)
	}
	// A co-located skip MB far away keeps σ = 1.
	if got := p.Sigma()[5*11+5]; got != 1 {
		t.Fatalf("unrelated MB σ = %v, want 1", got)
	}
}

// TestMEPenaltyPenalisesDamagedReference reproduces Figure 3: with the
// penalty active, a candidate pointing at a damaged MB must cost more
// than its raw SAD, and an undamaged candidate with equal SAD wins.
func TestMEPenaltyPenalisesDamagedReference(t *testing.T) {
	p := mustNew(t, Config{IntraTh: 0, PLR: 0.1})
	p.sigma[0] = 0.2 // MB (0,0) damaged

	pen := p.MEPenalty(&codec.MBContext{Row: 0, Col: 1, Index: 1})
	if pen == nil {
		t.Fatal("MEPenalty returned nil with PLR > 0")
	}
	damaged := pen(motion.Vector{X: -16}) // references MB (0,0)
	clean := pen(motion.Vector{X: 0})     // references MB (0,1), σ=1
	if damaged <= clean {
		t.Fatalf("damaged reference penalty %d not above clean penalty %d", damaged, clean)
	}
	if clean != 0 {
		t.Fatalf("clean reference should be unpenalised: penalty %d", clean)
	}
	if damaged < 0 {
		t.Fatal("penalty must never be negative (pruning contract)")
	}
}

// TestMEPenaltyTableMatchesFormula pins MEPenalty's nine-class table
// against the formula it replaces: for every macroblock of a QCIF grid
// (corners, edges, interior) under random σ matrices, and every vector
// within ±R for R across the table's edge (15 → 16) and the codec's
// maximum range, the returned PenaltyFunc must equal
// int32(weight·(1 − relatedMin)) clamped at 0.
func TestMEPenaltyTableMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 3; trial++ {
		p := mustNew(t, Config{IntraTh: 0, PLR: 0.02 + 0.3*rng.Float64(), Lambda: 0.5 + rng.Float64()})
		for i := range p.sigma {
			p.sigma[i] = rng.Float64()
			if rng.Intn(8) == 0 {
				p.sigma[i] = 1
			}
		}
		weight := p.cfg.Lambda * p.plr * p.cfg.PenaltyScale
		for row := 0; row < p.cfg.Rows; row++ {
			for col := 0; col < p.cfg.Cols; col++ {
				pen := p.MEPenalty(&codec.MBContext{Row: row, Col: col, Index: row*p.cfg.Cols + col})
				for _, r := range []int{0, 1, 7, 15, 16, 31} {
					for dy := -r; dy <= r; dy++ {
						for dx := -r; dx <= r; dx++ {
							mv := motion.Vector{X: dx, Y: dy}
							want := int32(weight * (1 - p.relatedMin(row, col, mv)))
							if want < 0 {
								want = 0
							}
							if got := pen(mv); got != want {
								t.Fatalf("trial %d mb (%d,%d) R=%d mv %+v: penalty %d, formula %d",
									trial, row, col, r, mv, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestMEPenaltyDisabled(t *testing.T) {
	zeroPLR := mustNew(t, Config{IntraTh: 0, PLR: 0})
	if zeroPLR.MEPenalty(&codec.MBContext{}) != nil {
		t.Fatal("PLR=0 should disable the penalty")
	}
	ablated := mustNew(t, Config{IntraTh: 0, PLR: 0.1, Lambda: -1})
	if ablated.MEPenalty(&codec.MBContext{}) != nil {
		t.Fatal("negative Lambda should disable the penalty")
	}
}

func TestSettersClamp(t *testing.T) {
	p := mustNew(t, Config{IntraTh: 0.5, PLR: 0.1})
	p.SetIntraTh(-2)
	if p.IntraTh() != 0 {
		t.Fatalf("IntraTh = %v, want 0", p.IntraTh())
	}
	p.SetIntraTh(7)
	if p.IntraTh() != 1 {
		t.Fatalf("IntraTh = %v, want 1", p.IntraTh())
	}
	p.SetPLR(-1)
	if p.PLR() != 0 {
		t.Fatalf("PLR = %v, want 0", p.PLR())
	}
	p.SetPLR(2)
	if p.PLR() != 1 {
		t.Fatalf("PLR = %v, want 1", p.PLR())
	}
}

func TestHigherPLRDecaysFaster(t *testing.T) {
	// §3.2: as α grows with fixed Intra_Th, σ decreases faster, so more
	// intra MBs get generated.
	low := mustNew(t, Config{IntraTh: 0, PLR: 0.05, DisableSimilarity: true})
	high := mustNew(t, Config{IntraTh: 0, PLR: 0.3, DisableSimilarity: true})
	for k := 0; k < 5; k++ {
		low.Update(allInterResult(9, 11, motion.Vector{}))
		high.Update(allInterResult(9, 11, motion.Vector{}))
	}
	if high.MeanSigma() >= low.MeanSigma() {
		t.Fatalf("higher PLR should decay σ faster: %.4f vs %.4f",
			high.MeanSigma(), low.MeanSigma())
	}
}

func TestFloorDiv(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{0, 16, 0}, {15, 16, 0}, {16, 16, 1}, {-1, 16, -1}, {-16, 16, -1}, {-17, 16, -2},
	}
	for _, tt := range tests {
		if got := floorDiv(tt.a, tt.b); got != tt.want {
			t.Errorf("floorDiv(%d, %d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSimilarityIdenticalMBs(t *testing.T) {
	f := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
	f.Fill(120, 128, 128)
	if sim := similarity(f, f, 2, 3, DefaultSimilarityScale); sim != 1 {
		t.Fatalf("identical MBs similarity = %v, want 1", sim)
	}
	g := f.Clone()
	for i := range g.Y {
		g.Y[i] = 0
	}
	f.Fill(255, 128, 128)
	if sim := similarity(f, g, 2, 3, DefaultSimilarityScale); sim != 0 {
		t.Fatalf("maximally different MBs similarity = %v, want 0", sim)
	}
}

func TestSimilaritySlowsDecay(t *testing.T) {
	// With a high-similarity previous frame (good concealment), σ must
	// decay slower than the Formula 3 approximation.
	const alpha = 0.2
	withSim := mustNew(t, Config{IntraTh: 0, PLR: alpha})
	noSim := mustNew(t, Config{IntraTh: 0, PLR: alpha, DisableSimilarity: true})

	frame := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
	frame.Fill(100, 128, 128)
	res := allInterResult(9, 11, motion.Vector{})
	res.PrevRecon = frame
	res.Recon = frame.Clone() // identical → sim = 1
	for k := 0; k < 5; k++ {
		withSim.Update(res)
		noSim.Update(allInterResult(9, 11, motion.Vector{}))
	}
	if withSim.MeanSigma() <= noSim.MeanSigma() {
		t.Fatalf("similarity should slow decay: %.4f vs %.4f",
			withSim.MeanSigma(), noSim.MeanSigma())
	}
}

func TestPlanFrameAlwaysP(t *testing.T) {
	p := mustNew(t, Config{IntraTh: 0.5, PLR: 0.1})
	for k := 0; k < 10; k++ {
		if p.PlanFrame(k) != codec.PFrame {
			t.Fatal("PBPAIR must never request I-frames")
		}
	}
}

func TestSigmaMap(t *testing.T) {
	p := mustNew(t, Config{IntraTh: 0.5, PLR: 0.1})
	p.sigma[0] = 0.05
	p.sigma[1] = 0.55
	m := p.SigmaMap()
	lines := 0
	for _, c := range m {
		if c == '\n' {
			lines++
		}
	}
	if lines != 9 {
		t.Fatalf("SigmaMap has %d lines, want 9", lines)
	}
	if m[0] != '0' || m[1] != '5' || m[2] != '9' {
		t.Fatalf("SigmaMap digits wrong: %q", m[:3])
	}
}

func TestParanoiaValidation(t *testing.T) {
	if _, err := New(Config{Rows: 9, Cols: 11, IntraTh: 0.5, Paranoia: -0.1}); err == nil {
		t.Fatal("negative paranoia accepted")
	}
	if _, err := New(Config{Rows: 9, Cols: 11, IntraTh: 0.5, Paranoia: 1}); err == nil {
		t.Fatal("paranoia 1 accepted")
	}
}

// TestParanoiaBoundsStaleness: with paranoia on, even the static fixed
// point (sim = 1, all skip) decays below any threshold eventually,
// guaranteeing a refresh; without it, σ holds forever.
func TestParanoiaBoundsStaleness(t *testing.T) {
	static := func(paranoia float64) float64 {
		p := mustNew(t, Config{IntraTh: 0.9, PLR: 0.1, Paranoia: paranoia})
		frame := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
		frame.Fill(100, 128, 128)
		res := allInterResult(9, 11, motion.Vector{})
		res.PrevRecon = frame
		res.Recon = frame.Clone() // sim = 1: the fixed-point case
		for k := 0; k < 60; k++ {
			p.Update(res)
		}
		return p.MeanSigma()
	}
	without := static(0)
	with := static(0.01)
	t.Logf("σ after 60 static frames: paranoia off %.4f, on %.4f", without, with)
	if without < 0.99 {
		t.Fatalf("paper-faithful σ should hold at the fixed point, got %.4f", without)
	}
	if with >= 0.9 {
		t.Fatalf("paranoia did not decay σ below the threshold: %.4f", with)
	}
}
