package experiment

import (
	"reflect"
	"strings"
	"testing"

	"pbpair/internal/codec"
	"pbpair/internal/core"
	"pbpair/internal/metrics"
	"pbpair/internal/network"
	"pbpair/internal/resilience"
	"pbpair/internal/synth"
)

func TestRunValidation(t *testing.T) {
	src := synth.New(synth.RegimeAkiyo)
	tests := []struct {
		name string
		s    Scenario
	}{
		{"no source", Scenario{Planner: resilience.NewNone(), Frames: 1}},
		{"no planner", Scenario{Source: src, Frames: 1}},
		{"no frames", Scenario{Source: src, Planner: resilience.NewNone()}},
	}
	for _, tt := range tests {
		if _, err := Run(tt.s); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

func TestRunLossFree(t *testing.T) {
	res, err := Run(Scenario{
		Name:    "basic",
		Source:  synth.New(synth.RegimeAkiyo),
		Frames:  5,
		Planner: resilience.NewNone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 5 || res.PSNR.Len() != 5 || res.FrameBytes.Len() != 5 {
		t.Fatalf("series lengths wrong: %+v", res)
	}
	if res.LostFrames != 0 || res.ConcealedMBs != 0 || res.PacketsLost != 0 {
		t.Fatalf("loss-free run reported loss: %+v", res)
	}
	if res.PSNR.Mean() < 28 {
		t.Fatalf("loss-free PSNR %.2f too low", res.PSNR.Mean())
	}
	if res.Joules <= 0 {
		t.Fatal("no energy recorded")
	}
	if res.TotalBytes <= 0 {
		t.Fatal("no bytes recorded")
	}
	if res.Scheme != "NO" {
		t.Fatalf("scheme name %q", res.Scheme)
	}
}

func TestRunWithScheduledLoss(t *testing.T) {
	clean, err := Run(Scenario{
		Name: "clean", Source: synth.New(synth.RegimeForeman), Frames: 10,
		Planner: resilience.NewNone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := Run(Scenario{
		Name: "lossy", Source: synth.New(synth.RegimeForeman), Frames: 10,
		Planner: resilience.NewNone(),
		Channel: network.NewSchedule(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.LostFrames != 1 {
		t.Fatalf("LostFrames = %d, want 1", lossy.LostFrames)
	}
	if lossy.ConcealedMBs < 99 {
		t.Fatalf("ConcealedMBs = %d, want >= 99", lossy.ConcealedMBs)
	}
	// PSNR at and after the lost frame must be worse than clean.
	cp, lp := clean.PSNR.Values(), lossy.PSNR.Values()
	if lp[3] >= cp[3] {
		t.Fatalf("lost frame PSNR %.2f not worse than clean %.2f", lp[3], cp[3])
	}
	// Error propagation: next frame still degraded (NO has no refresh).
	if lp[4] >= cp[4]-0.1 {
		t.Fatalf("no error propagation visible: %.2f vs %.2f", lp[4], cp[4])
	}
}

func TestKeepFrames(t *testing.T) {
	res, err := Run(Scenario{
		Name: "keep", Source: synth.New(synth.RegimeAkiyo), Frames: 3,
		Planner: resilience.NewNone(),
	}, KeepFrames())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecodedFrames) != 3 {
		t.Fatalf("kept %d frames, want 3", len(res.DecodedFrames))
	}
	// Frames must be healthy reconstructions.
	psnr, err := metrics.PSNR(synth.New(synth.RegimeAkiyo).Frame(2), res.DecodedFrames[2])
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 28 {
		t.Fatalf("kept frame PSNR %.2f", psnr)
	}
}

func TestCalibrateIntraThMonotoneProbe(t *testing.T) {
	// Synthetic probe: bytes = 1000 + th*9000 (monotone).
	probe := func(th float64) (int, error) { return 1000 + int(th*9000), nil }
	th, err := CalibrateIntraTh(probe, 5500, 16)
	if err != nil {
		t.Fatal(err)
	}
	if th < 0.49 || th > 0.51 {
		t.Fatalf("calibrated th %.4f, want ~0.50", th)
	}
	// Saturation below and above.
	if th, _ := CalibrateIntraTh(probe, 500, 8); th != 0 {
		t.Fatalf("target below range: th = %v, want 0", th)
	}
	if th, _ := CalibrateIntraTh(probe, 50000, 8); th != 1 {
		t.Fatalf("target above range: th = %v, want 1", th)
	}
}

func TestCalibrateIntraThRealEncoder(t *testing.T) {
	src := synth.New(synth.RegimeForeman)
	probe := func(th float64) (int, error) {
		planner, err := core.New(core.Config{Rows: 9, Cols: 11, IntraTh: th, PLR: 0.1})
		if err != nil {
			return 0, err
		}
		res, err := Run(Scenario{Name: "probe", Source: src, Frames: 8, Planner: planner})
		if err != nil {
			return 0, err
		}
		return res.TotalBytes, nil
	}
	lo, err := probe(0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := probe(1)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("probe not increasing: %d .. %d", lo, hi)
	}
	target := (lo + hi) / 2
	th, err := CalibrateIntraTh(probe, target, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := probe(th)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got, target) > 0.25 {
		t.Fatalf("calibrated size %d far from target %d (th=%.3f)", got, target, th)
	}
}

func relErr(a, b int) float64 {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d / float64(b)
}

func TestRecoveryFrames(t *testing.T) {
	clean := []float64{30, 30, 30, 30, 30, 30, 30, 30}
	lossy := []float64{30, 20, 22, 29.5, 30, 15, 15, 15}
	got := RecoveryFrames(clean, lossy, []int{1, 5}, 1.0)
	if got[0] != 2 {
		t.Errorf("event 0 recovery = %d, want 2 (frame 3 within 1 dB)", got[0])
	}
	if got[1] != -1 {
		t.Errorf("event 1 recovery = %d, want -1 (never recovers)", got[1])
	}
	// Out-of-range event.
	if r := RecoveryFrames(clean, lossy, []int{99}, 1.0); r[0] != -1 {
		t.Errorf("out-of-range event recovery = %d", r[0])
	}
	// Window ends at next event: event 0 can't claim recovery after event at 2.
	lossy2 := []float64{30, 10, 10, 30, 30, 30, 30, 30}
	r := RecoveryFrames(clean, lossy2, []int{1, 2}, 1.0)
	if r[0] != -1 {
		t.Errorf("recovery credited across a later event: %d", r[0])
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "scheme", "psnr")
	tb.AddRow("PBPAIR", "31.20")
	tb.AddRow("GOP-3", "29.87")
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "PBPAIR") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows() = %d", tb.Rows())
	}
}

func TestFormatSeries(t *testing.T) {
	line := FormatSeries("psnr", []float64{1.234, 5.678}, "%.1f")
	if line != "psnr,1.2,5.7" {
		t.Fatalf("got %q", line)
	}
	if got := FormatSeries("x", []float64{1}, ""); got != "x,1.00" {
		t.Fatalf("default format: %q", got)
	}
}

// TestFig6SmallRun exercises the whole Figure 6 pipeline at reduced
// scale and checks its headline claims: GOP suffers most at the
// I-frame-loss event, and PBPAIR recovers from every event.
func TestFig6SmallRun(t *testing.T) {
	events := []int{5, 20, 36}
	series, err := Fig6(Fig6Config{Frames: 42, ProbeFrames: 15, LossEvents: events})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4", len(series))
	}
	byName := map[string]Fig6Series{}
	for _, s := range series {
		byName[s.Scheme] = s
		if len(s.PSNR) != 42 || len(s.FrameBytes) != 42 {
			t.Fatalf("%s: series lengths %d/%d", s.Scheme, len(s.PSNR), len(s.FrameBytes))
		}
	}
	pb, ok := byName["PBPAIR"]
	if !ok {
		t.Fatal("no PBPAIR series")
	}
	gop, ok := byName["GOP-8"]
	if !ok {
		t.Fatal("no GOP-8 series")
	}
	// Frame 36 is a GOP-8 I-frame: after losing it, GOP's PSNR through
	// the rest of the sequence must collapse relative to PBPAIR's.
	gopTail := mean(gop.PSNR[37:])
	pbTail := mean(pb.PSNR[37:])
	t.Logf("post-I-frame-loss tail PSNR: GOP-8 %.2f dB, PBPAIR %.2f dB", gopTail, pbTail)
	if pbTail <= gopTail {
		t.Fatalf("PBPAIR tail %.2f not above GOP tail %.2f after I-frame loss", pbTail, gopTail)
	}
	// The paper's recovery claim: "PBPAIR recovers faster than PGOP
	// and AIR". Unrecovered events are censored at their window length.
	score := func(s Fig6Series) float64 {
		var total float64
		for i, r := range s.Recovery {
			if r < 0 {
				end := 42
				if i+1 < len(events) {
					end = events[i+1]
				}
				r = end - events[i]
			}
			total += float64(r)
		}
		return total / float64(len(s.Recovery))
	}
	pbScore := score(pb)
	pgopScore := score(byName["PGOP-1"])
	airScore := score(byName["AIR-10"])
	t.Logf("mean recovery (frames): PBPAIR %.1f, PGOP-1 %.1f, AIR-10 %.1f", pbScore, pgopScore, airScore)
	if pbScore > pgopScore || pbScore > airScore {
		t.Fatalf("PBPAIR recovery %.1f not fastest (PGOP %.1f, AIR %.1f)", pbScore, pgopScore, airScore)
	}
	// GOP frame sizes are bursty: max/mean well above PBPAIR's.
	gopBurst := maxOf(gop.FrameBytes) / mean(gop.FrameBytes)
	pbBurst := maxOf(pb.FrameBytes) / mean(pb.FrameBytes)
	t.Logf("frame-size burstiness (max/mean): GOP-8 %.2f, PBPAIR %.2f", gopBurst, pbBurst)
	if gopBurst <= pbBurst {
		t.Fatalf("GOP burstiness %.2f not above PBPAIR %.2f", gopBurst, pbBurst)
	}
}

// TestFig6LossEventWindow pins that Fig6 reports recovery only for
// loss events it injected: the defaults are cut to the window, and
// explicit events outside it or out of order are rejected.
func TestFig6LossEventWindow(t *testing.T) {
	cfg := Fig6Config{Frames: 16}.WithDefaults()
	if want := []int{4, 7, 13}; !reflect.DeepEqual(cfg.LossEvents, want) {
		t.Fatalf("default events at 16 frames = %v, want %v", cfg.LossEvents, want)
	}
	series, err := Fig6(Fig6Config{Frames: 16, ProbeFrames: 10, SearchRange: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.Recovery) != 3 {
			t.Fatalf("%s: recovery for %d events, want 3 (events 4, 7, 13)", s.Scheme, len(s.Recovery))
		}
	}
	for _, events := range [][]int{{4, 50}, {-1, 4}, {7, 4}, {4, 4}} {
		if _, err := Fig6(Fig6Config{Frames: 40, ProbeFrames: 10, SearchRange: 7, LossEvents: events}); err == nil {
			t.Errorf("loss events %v at 40 frames accepted", events)
		}
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TestSweepSmall checks the §4.3 trade-off directions on a tiny grid:
// at fixed PLR, higher Intra_Th ⇒ more intra MBs, bigger files, less
// energy.
func TestSweepSmall(t *testing.T) {
	points, err := Sweep(SweepConfig{
		Frames:   10,
		IntraThs: []float64{0, 0.9, 1},
		PLRs:     []float64{0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].IntraMBsPerFrame < points[i-1].IntraMBsPerFrame {
			t.Fatalf("intra rate not monotone in Intra_Th: %+v", points)
		}
		if points[i].EnergyJ >= points[i-1].EnergyJ {
			t.Fatalf("energy not decreasing in Intra_Th: %+v", points)
		}
	}
	if points[2].FileKB <= points[0].FileKB {
		t.Fatalf("all-intra file %.2f KB not larger than all-inter %.2f KB", points[2].FileKB, points[0].FileKB)
	}
}

// mbGridHelper sanity.
func TestMBGrid(t *testing.T) {
	r, c := mbGrid(synth.New(synth.RegimeAkiyo))
	if r != 9 || c != 11 {
		t.Fatalf("grid %dx%d, want 9x11", r, c)
	}
}

var _ codec.ModePlanner = (*resilience.None)(nil) // interface checks stay honest
