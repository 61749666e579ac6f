package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pbpair/internal/synth"
)

// TestFig5BatchSingleTrialMatchesFig5 pins the figure-level trial-0
// contract: Fig5 at one trial reproduces the scalar Plan+Simulate
// oracle exactly — same calibration, same encodes, and lane 0's
// channel is the oracle's channel, so every field must be identical,
// the work counters included.
func TestFig5BatchSingleTrialMatchesFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig5 grid is slow; skipped in -short mode")
	}
	cfg := Fig5Config{Frames: 10, ProbeFrames: 8, SearchRange: 7, PLR: 0.15, Seed: 404}
	want, err := fig5Scalar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d batch cells vs %d scalar rows", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d:\nbatch  %+v\nscalar %+v", i, got[i], want[i])
		}
	}
}

// TestFig5AnalyticSharesMonteCarloCells pins that the analytic engine
// evaluates the same operating points as the Monte-Carlo one: same
// cells in the same order, same calibrated thresholds, and identical
// loss-independent columns. Only the quality columns may differ.
func TestFig5AnalyticSharesMonteCarloCells(t *testing.T) {
	if testing.Short() {
		t.Skip("two Fig5 grids are slow; skipped in -short mode")
	}
	// One cache across both runs: the analytic run re-requests every
	// probe and encode the Monte-Carlo run made.
	cfg := Fig5Config{Frames: 8, ProbeFrames: 8, SearchRange: 7, PLR: 0.15, Cache: newCache(t)}
	mc, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = EngineAnalytic
	an, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := cfg.Cache.Stats(); st.Misses == 0 || st.Hits < st.Misses {
		t.Errorf("analytic run did not reuse the Monte-Carlo encodes: %+v", st)
	}
	if len(an) != 15 || len(an) != len(mc) {
		t.Fatalf("%d analytic cells vs %d Monte-Carlo, want 15", len(an), len(mc))
	}
	for i, a := range an {
		m := mc[i]
		if a.Sequence != m.Sequence || a.Scheme != m.Scheme {
			t.Fatalf("cell %d: analytic %s/%s vs Monte-Carlo %s/%s", i, a.Sequence, a.Scheme, m.Sequence, m.Scheme)
		}
		if a.IntraTh != m.IntraTh || a.FileKB != m.FileKB || a.EnergyJ != m.EnergyJ || a.Counters != m.Counters {
			t.Errorf("%s/%s: loss-independent columns diverge: analytic %+v, Monte-Carlo %+v", a.Sequence, a.Scheme, a, m)
		}
		if a.Trials != 0 || a.PSNRStd != 0 || a.BadPixStd != 0 {
			t.Errorf("%s/%s: analytic cell reports sampled spread: %+v", a.Sequence, a.Scheme, a)
		}
		if a.AvgPSNR <= 0 || a.BadPixels != math.Floor(a.BadPixels) {
			t.Errorf("%s/%s: analytic quality %v dB, %v bad pixels", a.Sequence, a.Scheme, a.AvgPSNR, a.BadPixels)
		}
	}
}

// TestFig5Validation rejects trial counts no engine can honour before
// any calibration runs.
func TestFig5Validation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Fig5Config
	}{
		{"negative trials", Fig5Config{Trials: -1}},
		{"analytic with trials", Fig5Config{Engine: EngineAnalytic, Trials: 2}},
		{"unknown engine", Fig5Config{Engine: Engine(7)}},
	} {
		if _, err := Fig5(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSweepValidation rejects a negative trial count.
func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(SweepConfig{Trials: -3}); err == nil {
		t.Fatal("negative trials accepted")
	}
}

// TestSweepSingleTrialMatchesScalar pins the sweep's trial-0 contract:
// at one trial the batch sweep renders the scalar Plan+Simulate
// oracle's CSV byte for byte, lossy and loss-free points alike.
func TestSweepSingleTrialMatchesScalar(t *testing.T) {
	cfg := SweepConfig{
		Frames: 6, SearchRange: 4, Regime: synth.RegimeForeman,
		IntraThs: []float64{0, 0.4, 0.9}, PLRs: []float64{0, 0.1, 0.3}, Seed: 9,
	}
	want, err := sweepScalar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if SweepCSV(got) != SweepCSV(want) {
		t.Fatalf("batch sweep CSV differs from scalar oracle\nbatch:\n%s\nscalar:\n%s", SweepCSV(got), SweepCSV(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sweep points differ from scalar oracle:\n%+v\n%+v", got, want)
	}
}

// TestSweepTrialsAxis pins the multi-trial sweep: the grid shape and
// loss-independent columns match the single-trial sweep exactly, the
// lossy points carry real confidence intervals, and the loss-free
// points have zero spread (every lane decodes the same clean stream).
func TestSweepTrialsAxis(t *testing.T) {
	base := SweepConfig{
		Frames: 6, SearchRange: 4, Regime: synth.RegimeForeman,
		IntraThs: []float64{0.4, 0.9}, PLRs: []float64{0, 0.2}, Seed: 5,
	}
	single, err := Sweep(base)
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.Trials = 64
	got, err := Sweep(multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(single) {
		t.Fatalf("%d multi-trial points vs %d single", len(got), len(single))
	}
	for i, p := range got {
		s := single[i]
		if p.IntraTh != s.IntraTh || p.PLR != s.PLR {
			t.Fatalf("point %d: grid order diverged", i)
		}
		if p.FileKB != s.FileKB || p.EnergyJ != s.EnergyJ || p.IntraMBsPerFrame != s.IntraMBsPerFrame {
			t.Errorf("point %d: loss-independent columns diverge from single-trial sweep", i)
		}
		if p.Trials != 64 {
			t.Errorf("point %d: trials %d", i, p.Trials)
		}
		if p.PLR == 0 {
			// Every lane decodes the same clean stream; the only play in
			// the mean and CI is the rounding of the 64-term summation.
			if p.PSNRCI95 > 1e-10 || math.Abs(p.AvgPSNR-s.AvgPSNR) > 1e-10 || p.BadPixels != s.BadPixels {
				t.Errorf("loss-free point %d: lanes diverged: %+v vs %+v", i, p, s)
			}
		} else if p.PSNRCI95 <= 0 {
			t.Errorf("lossy point %d: no PSNR confidence interval", i)
		}
	}

	// CSV schema regression: the legacy single-trial schema is
	// byte-stable, and the multi-trial schema appends exactly the
	// confidence columns.
	singleCSV := SweepCSV(single)
	if !strings.HasPrefix(singleCSV, "intra_th,plr,intra_mbs_per_frame,file_kb,energy_j,avg_psnr_db,bad_pixels\n") {
		t.Fatalf("single-trial CSV header changed:\n%s", singleCSV)
	}
	if n := strings.Count(strings.TrimSpace(strings.SplitN(singleCSV, "\n", 2)[0]), ","); n != 6 {
		t.Fatalf("single-trial CSV has %d commas in header, want 6", n)
	}
	multiCSV := SweepCSV(got)
	wantHeader := "intra_th,plr,intra_mbs_per_frame,file_kb,energy_j,avg_psnr_db,bad_pixels,psnr_ci95,bad_pixels_ci95,trials\n"
	if !strings.HasPrefix(multiCSV, wantHeader) {
		t.Fatalf("multi-trial CSV header:\n%s", multiCSV)
	}
	lines := strings.Split(strings.TrimSpace(multiCSV), "\n")
	if len(lines) != 1+len(got) {
		t.Fatalf("multi-trial CSV has %d lines, want %d", len(lines), 1+len(got))
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != 9 {
			t.Fatalf("multi-trial CSV row has %d commas, want 9: %s", n, line)
		}
	}
}
