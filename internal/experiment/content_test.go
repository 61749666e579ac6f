package experiment

import (
	"reflect"
	"testing"

	"pbpair/internal/synth"
)

// TestContentTableSmall runs the cross-content study at reduced scale
// and checks the content-adaptation claims it exists to demonstrate.
func TestContentTableSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-content table is slow; skipped in -short mode")
	}
	rows, err := ContentTable(ContentConfig{
		Frames:      36,
		SearchRange: 7,
		Regimes:     []synth.Regime{synth.RegimeHall, synth.RegimeGarden},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 2 regimes x 5 schemes
		t.Fatalf("got %d rows", len(rows))
	}
	cell := func(seq, scheme string) ContentRow {
		for _, r := range rows {
			if r.Sequence == seq && r.Scheme == scheme {
				return r
			}
		}
		t.Fatalf("missing cell %s/%s", seq, scheme)
		return ContentRow{}
	}

	// Content adaptation: on the static hall scene PBPAIR spends far
	// fewer intra MBs than PGOP-3's fixed sweep, at a fraction of the
	// bits.
	pbHall := cell("hall", "PBPAIR")
	pgopHall := cell("hall", "PGOP-3")
	t.Logf("hall: PBPAIR %.1f intra/frame %.1f KB, PGOP-3 %.1f intra/frame %.1f KB",
		pbHall.IntraRate, pbHall.FileKB, pgopHall.IntraRate, pgopHall.FileKB)
	if pbHall.IntraRate >= pgopHall.IntraRate {
		t.Fatal("PBPAIR did not adapt its refresh down on static content")
	}
	if pbHall.FileKB >= pgopHall.FileKB {
		t.Fatal("PBPAIR's adaptive refresh should cost fewer bits on static content")
	}

	// And on garden it must scale the refresh up, not stay minimal.
	pbGarden := cell("garden", "PBPAIR")
	if pbGarden.IntraRate <= pbHall.IntraRate {
		t.Fatalf("refresh rate did not scale with content: hall %.1f vs garden %.1f",
			pbHall.IntraRate, pbGarden.IntraRate)
	}
	// Quality on hall: PBPAIR within range of the much more expensive
	// fixed schemes.
	if pbHall.AvgPSNR < pgopHall.AvgPSNR-3 {
		t.Fatalf("PBPAIR hall quality %.2f collapsed vs PGOP %.2f",
			pbHall.AvgPSNR, pgopHall.AvgPSNR)
	}
}

// TestContentTableMatchesScalar pins that ContentTable's batch cells
// at one trial reproduce the scalar oracle — one Encode plus one
// Simulate over UniformLoss(PLR, Seed + regime) per cell — field for
// field.
func TestContentTableMatchesScalar(t *testing.T) {
	cfg := ContentConfig{
		Frames: 6, SearchRange: 7, PLR: 0.2,
		Regimes: []synth.Regime{synth.RegimeHall, synth.RegimeForeman},
		Workers: 2,
	}
	want, err := contentScalar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ContentTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ContentTable diverged from the scalar oracle:\ngot  %+v\nwant %+v", got, want)
	}
}
