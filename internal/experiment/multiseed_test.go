package experiment

import (
	"math"
	"testing"
)

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean %v", m)
	}
	// Sample std dev of that set is ~2.138.
	if math.Abs(s-2.138) > 0.01 {
		t.Fatalf("std %v", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty input")
	}
	if m, s := meanStd([]float64{3}); m != 3 || s != 0 {
		t.Fatal("single input")
	}
}

func TestSplitKey(t *testing.T) {
	seq, scheme := splitKey("foreman\x00PBPAIR")
	if seq != "foreman" || scheme != "PBPAIR" {
		t.Fatalf("split = %q/%q", seq, scheme)
	}
}

// TestFig5MultiSmall runs the multi-trial Figure 5 at tiny scale and
// checks the aggregation invariants: loss-independent columns have no
// spread, quality columns usually do, and PBPAIR's win over NO is
// separated beyond noise.
func TestFig5MultiSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial Fig5 is slow; skipped in -short mode")
	}
	cfg := Fig5Config{Frames: 16, ProbeFrames: 8, SearchRange: 7, PLR: 0.12, Trials: 64}
	rows, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 3 sequences x 5 schemes
		t.Fatalf("got %d cells, want 15", len(rows))
	}
	anyPSNRSpread := false
	for _, r := range rows {
		if r.Trials != 64 {
			t.Fatalf("%s/%s aggregated %d trials", r.Sequence, r.Scheme, r.Trials)
		}
		if r.PSNRStd > 0 {
			anyPSNRSpread = true
		}
		if r.FileKB <= 0 || r.EnergyJ <= 0 {
			t.Fatalf("%s/%s: non-positive size/energy", r.Sequence, r.Scheme)
		}
	}
	if !anyPSNRSpread {
		t.Fatal("no PSNR spread across trials; loss seeding broken")
	}

	// PBPAIR must beat NO beyond the trial noise on the active foreman
	// content (the weakest form of the paper's Figure 5 claim).
	ok, err := SeparationVerdict(rows, "foreman", "PBPAIR", "NO")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		for _, r := range rows {
			if r.Sequence == "foreman" {
				t.Logf("%s: %.2f ± %.2f dB", r.Scheme, r.AvgPSNR, r.PSNRStd)
			}
		}
		t.Fatal("PBPAIR vs NO not separated beyond noise")
	}
}

func TestSeparationVerdictErrors(t *testing.T) {
	if _, err := SeparationVerdict(nil, "foreman", "A", "B"); err == nil {
		t.Fatal("missing schemes accepted")
	}
}
