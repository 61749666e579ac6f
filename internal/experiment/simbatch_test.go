package experiment

import (
	"testing"

	"pbpair/internal/codec"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/synth"
)

// encodeForBatch builds a GOP-3 test sequence: periodic full intra
// refresh gives lineages a natural re-merge point, which is the state
// shape the batch engine is designed around.
func encodeForBatch(t testing.TB, regime synth.Regime, frames int) (*codec.EncodedSequence, synth.Source) {
	t.Helper()
	src := synth.Shared(regime)
	seq, err := Encode(nil, EncodeSpec{
		Regime: regime, Frames: frames, QP: 8, SearchRange: 7,
		Scheme: SchemeGOP(3),
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return seq, src
}

// scalarTrial runs the legacy scalar Simulate for one lane of a batch
// spec: same sequence, channel seeded with LaneSeed(seed, lane).
func scalarTrial(t testing.TB, seq *codec.EncodedSequence, src synth.Source, sim SimSpec, batch BatchSpec, lane int) *Result {
	t.Helper()
	var ch network.Channel
	var err error
	if batch.GE != nil {
		ch, err = network.NewGilbertElliott(*batch.GE, network.LaneSeed(batch.Seed, lane))
	} else {
		ch, err = network.NewUniformLoss(batch.LossRate, network.LaneSeed(batch.Seed, lane))
	}
	if err != nil {
		t.Fatal(err)
	}
	sim.Channel = ch
	res, err := Simulate(seq, src, sim)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareScalar checks one batch lane against its scalar twin with
// exact equality — the batch engine accumulates per-frame values in
// the same order the scalar loop does, so even the floating-point
// results must be bitwise identical.
func compareScalar(t *testing.T, label string, mtr *MultiTrialResult, lane int, want *Result) {
	t.Helper()
	if got := mtr.LanePSNR[lane]; got != want.PSNR.Mean() {
		t.Errorf("%s lane %d: PSNR mean %v, scalar %v", label, lane, got, want.PSNR.Mean())
	}
	if got := int(mtr.LaneBadPixels[lane]); got != want.TotalBadPix {
		t.Errorf("%s lane %d: bad pixels %d, scalar %d", label, lane, got, want.TotalBadPix)
	}
	if got := int(mtr.LaneConcealedMBs[lane]); got != want.ConcealedMBs {
		t.Errorf("%s lane %d: concealed MBs %d, scalar %d", label, lane, got, want.ConcealedMBs)
	}
	if got := int(mtr.LaneLostFrames[lane]); got != want.LostFrames {
		t.Errorf("%s lane %d: lost frames %d, scalar %d", label, lane, got, want.LostFrames)
	}
	if got := int(mtr.LanePacketsLost[lane]); got != want.PacketsLost {
		t.Errorf("%s lane %d: packets lost %d, scalar %d", label, lane, got, want.PacketsLost)
	}
}

// TestSimBatchLane0Golden pins the trial-0 compatibility contract:
// lane 0 of a batch run reproduces the legacy single-seed Simulate
// byte for byte — the full per-frame series, every counter — over
// lossy and truncation-heavy configurations (small MTU forces
// multi-packet frames, so losses splice partial payloads).
func TestSimBatchLane0Golden(t *testing.T) {
	ge := &network.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.4, LossGood: 0.05, LossBad: 0.6}
	cases := []struct {
		name  string
		sim   SimSpec
		batch BatchSpec
	}{
		{
			name:  "uniform20-small-mtu",
			sim:   SimSpec{Name: "b/u20", MTU: 300},
			batch: BatchSpec{Trials: 5, Seed: 2005, LossRate: 0.2, Lane0Result: true},
		},
		{
			name:  "uniform40-heavy",
			sim:   SimSpec{Name: "b/u40", MTU: 256},
			batch: BatchSpec{Trials: 3, Seed: 17, LossRate: 0.4, Lane0Result: true},
		},
		{
			name:  "gilbert-elliott",
			sim:   SimSpec{Name: "b/ge", MTU: 300},
			batch: BatchSpec{Trials: 4, Seed: 99, GE: ge, Lane0Result: true},
		},
		{
			name:  "loss-free",
			sim:   SimSpec{Name: "b/clean", MTU: 1500},
			batch: BatchSpec{Trials: 2, Seed: 1, LossRate: 0, Lane0Result: true},
		},
	}
	seq, src := encodeForBatch(t, synth.RegimeForeman, 12)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mtr, err := SimBatch(seq, src, tc.sim, tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			want := scalarTrial(t, seq, src, tc.sim, tc.batch, 0)
			got := mtr.Lane0
			if got == nil {
				t.Fatal("Lane0Result set but Lane0 is nil")
			}
			// Full per-frame series, bitwise.
			for _, s := range []struct {
				name      string
				got, want []float64
			}{
				{"PSNR", got.PSNR.Values(), want.PSNR.Values()},
				{"BadPixels", got.BadPixels.Values(), want.BadPixels.Values()},
				{"FrameBytes", got.FrameBytes.Values(), want.FrameBytes.Values()},
				{"IntraMBs", got.IntraMBs.Values(), want.IntraMBs.Values()},
			} {
				if len(s.got) != len(s.want) {
					t.Fatalf("%s series length %d vs %d", s.name, len(s.got), len(s.want))
				}
				for i := range s.want {
					if s.got[i] != s.want[i] {
						t.Fatalf("%s[%d] = %v, scalar %v", s.name, i, s.got[i], s.want[i])
					}
				}
			}
			if got.TotalBytes != want.TotalBytes || got.TotalBadPix != want.TotalBadPix ||
				got.ConcealedMBs != want.ConcealedMBs || got.LostFrames != want.LostFrames ||
				got.PacketsSent != want.PacketsSent || got.PacketsLost != want.PacketsLost ||
				got.Joules != want.Joules || got.Counters != want.Counters {
				t.Fatalf("lane-0 counters diverge:\nbatch  %+v\nscalar %+v", got, want)
			}
			compareScalar(t, tc.name, mtr, 0, want)
		})
	}
}

// TestSimBatchAllLanesMatchScalar checks every lane — not just lane 0
// — against its scalar twin, across the 64-lane word boundary, for
// both channel families.
func TestSimBatchAllLanesMatchScalar(t *testing.T) {
	seq, src := encodeForBatch(t, synth.RegimeForeman, 8)
	ge := &network.GEConfig{PGoodToBad: 0.08, PBadToGood: 0.35, LossGood: 0.03, LossBad: 0.5}
	for _, tc := range []struct {
		name  string
		batch BatchSpec
	}{
		{"uniform", BatchSpec{Trials: 67, Seed: 4242, LossRate: 0.15}},
		{"ge", BatchSpec{Trials: 67, Seed: 31, GE: ge}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := SimSpec{Name: "b/all", MTU: 512}
			mtr, err := SimBatch(seq, src, sim, tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < tc.batch.Trials; lane++ {
				want := scalarTrial(t, seq, src, sim, tc.batch, lane)
				compareScalar(t, tc.name, mtr, lane, want)
			}
			if t.Failed() {
				t.FailNow()
			}
		})
	}
}

// TestSimBatchDeterministicAcrossWorkers pins the engine's worker
// invariance (and, under `make race`, its race-cleanness): identical
// results at every Workers value.
func TestSimBatchDeterministicAcrossWorkers(t *testing.T) {
	seq, src := encodeForBatch(t, synth.RegimeForeman, 10)
	run := func(workers int) *MultiTrialResult {
		mtr, err := SimBatch(seq, src, SimSpec{Name: "b/det", MTU: 400},
			BatchSpec{Trials: 130, Seed: 7, LossRate: 0.25, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return mtr
	}
	want := run(1)
	for _, workers := range []int{2, 4, 0} {
		got := run(workers)
		for l := 0; l < want.Trials; l++ {
			if got.LanePSNR[l] != want.LanePSNR[l] ||
				got.LaneBadPixels[l] != want.LaneBadPixels[l] ||
				got.LaneConcealedMBs[l] != want.LaneConcealedMBs[l] ||
				got.LaneLostFrames[l] != want.LaneLostFrames[l] ||
				got.LanePacketsLost[l] != want.LanePacketsLost[l] {
				t.Fatalf("workers=%d lane %d diverges from serial run", workers, l)
			}
		}
		if got.Batch != want.Batch {
			t.Fatalf("workers=%d: batch stats diverge: %+v vs %+v", workers, got.Batch, want.Batch)
		}
	}
}

// TestSimBatchObsCounters checks the dedup observability surface: the
// engine decodes far fewer groups than lane-frames at realistic loss,
// the all-received fast path dominates, and the counters land in the
// registry.
func TestSimBatchObsCounters(t *testing.T) {
	seq, src := encodeForBatch(t, synth.RegimeForeman, 12)
	reg := obs.NewRegistry()
	mtr, err := SimBatch(seq, src, SimSpec{Name: "b/obs", MTU: 1500},
		BatchSpec{Trials: 1000, Seed: 3, LossRate: 0.05, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	st := mtr.Batch
	if st.LaneFrames != 12*1000 {
		t.Fatalf("lane frames %d", st.LaneFrames)
	}
	if st.GroupDecodes >= st.LaneFrames/10 {
		t.Fatalf("dedup ineffective: %d group decodes for %d lane frames", st.GroupDecodes, st.LaneFrames)
	}
	if st.AllReceived == 0 || st.MaxLiveGroups < 1 {
		t.Fatalf("implausible stats: %+v", st)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"sim.batch_lane_frames", "sim.batch_group_decodes", "sim.batch_parsed_frames",
		"sim.batch_all_received_fast", "sim.batch_forks", "sim.batch_merges",
		"sim.batch_lanes_per_decode", "sim.batch_max_live_groups",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("registry missing %s", name)
		}
	}
	if got := snap["sim.batch_lane_frames"]; got != float64(st.LaneFrames) {
		t.Errorf("registry lane frames %v, stats %d", got, st.LaneFrames)
	}
}

// TestSimBatchRejects pins the explicit mode boundaries.
func TestSimBatchRejects(t *testing.T) {
	seq, src := encodeForBatch(t, synth.RegimeForeman, 2)
	ok := BatchSpec{Trials: 2, LossRate: 0.1}
	if _, err := SimBatch(seq, src, SimSpec{FECGroup: 2}, ok); err == nil {
		t.Error("FEC accepted in batch mode")
	}
	ch, _ := network.NewUniformLoss(0.1, 1)
	if _, err := SimBatch(seq, src, SimSpec{Channel: ch}, ok); err == nil {
		t.Error("sim.Channel accepted in batch mode")
	}
	if _, err := SimBatch(seq, src, SimSpec{}, BatchSpec{Trials: 0}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := SimBatch(seq, src, SimSpec{}, BatchSpec{Trials: 2, LossRate: 1.5}); err == nil {
		t.Error("loss rate 1.5 accepted")
	}
	nan := func() float64 { z := 0.0; return z / z }()
	if _, err := SimBatch(seq, src, SimSpec{}, BatchSpec{Trials: 2, LossRate: nan}); err == nil {
		t.Error("NaN loss rate accepted")
	}
	if _, err := SimBatch(seq, src, SimSpec{}, BatchSpec{Trials: 2, GE: &network.GEConfig{LossBad: 2}}); err == nil {
		t.Error("bad GE config accepted")
	}
	if _, err := SimBatch(nil, src, SimSpec{}, ok); err == nil {
		t.Error("nil sequence accepted")
	}
}
