package codec

import (
	"testing"

	"pbpair/internal/motion"
	"pbpair/internal/synth"
)

// interPlanner is the plainest ModePlanner: P frames, no refresh.
type interPlanner struct{}

func (interPlanner) Name() string                            { return "inter" }
func (interPlanner) PlanFrame(int) FrameType                 { return PFrame }
func (interPlanner) PreME(*MBContext) bool                   { return false }
func (interPlanner) MEPenalty(*MBContext) motion.PenaltyFunc { return nil }
func (interPlanner) PostME(*FramePlan)                       {}
func (interPlanner) Update(*FrameResult)                     {}

// TestEncoderScratchDeferred pins the memory contract restore points
// rely on: a new or cloned encoder holds only its reference frame, and
// the per-frame rec/pred scratch appears on the first EncodeFrame.
func TestEncoderScratchDeferred(t *testing.T) {
	src := synth.New(synth.RegimeForeman)
	w, h := src.Dims()
	enc, err := NewEncoder(Config{Width: w, Height: h, QP: 8, Planner: interPlanner{}})
	if err != nil {
		t.Fatal(err)
	}
	if enc.ref == nil || enc.rec != nil || enc.pred != nil {
		t.Fatalf("new encoder: ref=%v rec=%v pred=%v, want only ref", enc.ref != nil, enc.rec != nil, enc.pred != nil)
	}
	if _, err := enc.EncodeFrame(src.Frame(0)); err != nil {
		t.Fatal(err)
	}
	if enc.rec == nil || enc.pred == nil {
		t.Fatal("EncodeFrame did not allocate its scratch")
	}
	clone, err := enc.Clone(interPlanner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clone.ref == nil || clone.rec != nil || clone.pred != nil {
		t.Fatalf("clone: ref=%v rec=%v pred=%v, want only ref", clone.ref != nil, clone.rec != nil, clone.pred != nil)
	}
	if clone.ref == enc.ref || !clone.ref.Equal(enc.ref) {
		t.Fatal("clone must hold a deep copy of the reference frame")
	}
}
