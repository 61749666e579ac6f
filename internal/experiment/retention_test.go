package experiment

import (
	"testing"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// TestSimulateRetentionOff pins the frame-retention contract: with
// retention off, Simulate must not hold decoded frames (they would pin
// ~38 KB per frame per cell across a whole experiment grid), and every
// metric must be identical to a retaining run — retention is pure
// observation.
func TestSimulateRetentionOff(t *testing.T) {
	spec := EncodeSpec{
		Regime: synth.RegimeForeman, Frames: 6,
		SearchRange: 7,
		Scheme:      SchemeNO(),
	}
	seq, err := Encode(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	src := synth.Shared(synth.RegimeForeman)

	sim := func(opts ...Option) *Result {
		ch, err := network.NewUniformLoss(0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(seq, src, SimSpec{Name: "retention", Channel: ch}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	kept := sim(KeepFrames())
	plain := sim()

	if len(kept.DecodedFrames) != 6 {
		t.Fatalf("retaining run kept %d frames, want 6", len(kept.DecodedFrames))
	}
	if plain.DecodedFrames != nil {
		t.Fatalf("non-retaining run kept %d frames, want none", len(plain.DecodedFrames))
	}
	if kp, pp := kept.PSNR.Values(), plain.PSNR.Values(); len(kp) != len(pp) {
		t.Fatalf("PSNR trace lengths differ: %d vs %d", len(kp), len(pp))
	} else {
		for i := range kp {
			if kp[i] != pp[i] {
				t.Fatalf("frame %d PSNR differs with retention: %v vs %v", i, kp[i], pp[i])
			}
		}
	}
	if kept.TotalBadPix != plain.TotalBadPix || kept.ConcealedMBs != plain.ConcealedMBs ||
		kept.LostFrames != plain.LostFrames || kept.PacketsLost != plain.PacketsLost {
		t.Fatal("loss/metric counters differ between retaining and non-retaining runs")
	}
}

// TestSimulateDecoderWorkersBitExact extends the decoder's parallelism
// guarantee through the simulate phase: a lossy simulation produces
// identical metrics at every decoder worker count.
func TestSimulateDecoderWorkersBitExact(t *testing.T) {
	spec := EncodeSpec{
		Regime: synth.RegimeForeman, Frames: 6,
		SearchRange: 7, HalfPel: true,
		Scheme: SchemeGOP(3),
	}
	seq, err := Encode(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	src := synth.Shared(synth.RegimeForeman)

	sim := func(workers int) *Result {
		ch, err := network.NewUniformLoss(0.15, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(seq, src, SimSpec{
			Name:           "dec-workers",
			Channel:        ch,
			DecoderWorkers: workers,
		}, KeepFrames())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := sim(1)
	for _, workers := range []int{2, 4} {
		got := sim(workers)
		wp, gp := want.PSNR.Values(), got.PSNR.Values()
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("workers=%d frame %d PSNR differs: %v vs %v", workers, i, gp[i], wp[i])
			}
		}
		if got.TotalBadPix != want.TotalBadPix || got.ConcealedMBs != want.ConcealedMBs {
			t.Fatalf("workers=%d counters differ from serial decode", workers)
		}
		for i := range want.DecodedFrames {
			if !got.DecodedFrames[i].Equal(want.DecodedFrames[i]) {
				t.Fatalf("workers=%d decoded frame %d differs from serial decode", workers, i)
			}
		}
	}
}
