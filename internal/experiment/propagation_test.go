package experiment

import (
	"testing"

	"pbpair/internal/core"
)

func TestPropagationValidation(t *testing.T) {
	if _, err := Propagation(PropagationConfig{}); err == nil {
		t.Fatal("missing Scheme accepted")
	}
	if _, err := Propagation(PropagationConfig{
		Frames: 10, Event: 20,
		Scheme: SchemeNO(),
	}); err == nil {
		t.Fatal("event outside window accepted")
	}
}

// TestPropagationShapes verifies the central propagation physics:
// without refresh the damage persists (long or infinite half-life,
// big residual); with PBPAIR refresh the gap decays.
func TestPropagationShapes(t *testing.T) {
	base := PropagationConfig{Frames: 30, Event: 8, SearchRange: 7}

	noCfg := base
	noCfg.Scheme = SchemeNO()
	no, err := Propagation(noCfg)
	if err != nil {
		t.Fatal(err)
	}

	pbCfg := base
	pbCfg.Scheme = SchemePBPAIR(core.Config{Rows: 9, Cols: 11, IntraTh: 0.9, PLR: 0.1})
	pb, err := Propagation(pbCfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("NO: peak %.2f dB, half-life %d, residual %.2f dB", no.PeakGapDB, no.HalfLife, no.ResidualDB)
	t.Logf("PBPAIR: peak %.2f dB, half-life %d, residual %.2f dB", pb.PeakGapDB, pb.HalfLife, pb.ResidualDB)

	if no.PeakGapDB < 1 || pb.PeakGapDB < 1 {
		t.Fatal("a whole-frame loss should open a clear gap")
	}
	if len(no.GapDB) != 30-8 {
		t.Fatalf("gap series length %d", len(no.GapDB))
	}
	// PBPAIR repairs; NO does not (or far more slowly).
	if pb.ResidualDB >= no.ResidualDB {
		t.Fatalf("PBPAIR residual %.2f not below NO %.2f", pb.ResidualDB, no.ResidualDB)
	}
	pbHL, noHL := pb.HalfLife, no.HalfLife
	if pbHL < 0 {
		t.Fatal("PBPAIR never halved the gap")
	}
	if noHL >= 0 && noHL < pbHL {
		t.Fatalf("NO (half-life %d) repaired faster than PBPAIR (%d)", noHL, pbHL)
	}
}

// TestPropagationGOPStep: GOP's repair is a step at the next I-frame —
// the gap stays high, then collapses to ~0 in one frame.
func TestPropagationGOPStep(t *testing.T) {
	cfg := PropagationConfig{Frames: 30, Event: 10, SearchRange: 7}
	cfg.Scheme = SchemeGOP(8)
	res, err := Propagation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Event at 10; next I-frame at 18 (multiples of 9): gap index 8.
	idx := 18 - 10
	before := res.GapDB[idx-1]
	after := res.GapDB[idx]
	t.Logf("GOP-8 gap around the I-frame: %.2f -> %.2f dB", before, after)
	if after >= before/2 {
		t.Fatalf("I-frame did not collapse the gap: %.2f -> %.2f", before, after)
	}
	if after > 1.0 {
		t.Fatalf("post-I-frame residual %.2f dB too large", after)
	}
}
