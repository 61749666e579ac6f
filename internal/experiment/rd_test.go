package experiment

import (
	"testing"

	"pbpair/internal/core"
	"pbpair/internal/synth"
)

func TestRDCurveValidation(t *testing.T) {
	if _, err := RDCurve(RDConfig{}); err == nil {
		t.Fatal("missing Scheme accepted")
	}
}

func TestRDCurveMonotone(t *testing.T) {
	points, err := RDCurve(RDConfig{
		Regime:      synth.RegimeForeman,
		Frames:      8,
		SearchRange: 7,
		QPs:         []int{2, 8, 20, 31},
		Scheme:      SchemeNO(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].KBytes >= points[i-1].KBytes {
			t.Fatalf("rate not decreasing with QP: %+v", points)
		}
		if points[i].PSNR >= points[i-1].PSNR {
			t.Fatalf("quality not decreasing with QP: %+v", points)
		}
	}
}

// TestResilienceCostsBits: at equal quality PBPAIR's curve sits right
// of NO's — robustness is paid in rate, the §4.3 trade-off.
func TestResilienceCostsBits(t *testing.T) {
	cfg := RDConfig{
		Regime:      synth.RegimeForeman,
		Frames:      10,
		SearchRange: 7,
		QPs:         []int{4, 8, 14, 22},
	}
	cfg.Scheme = SchemeNO()
	noCurve, err := RDCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = SchemePBPAIR(core.Config{Rows: 9, Cols: 11, IntraTh: 0.9, PLR: 0.1})
	pbCurve, err := RDCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := BDRateGap(noCurve, pbCurve)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PBPAIR rate overhead at equal quality: %.2fx", gap)
	if gap <= 1.0 {
		t.Fatalf("resilience came for free (gap %.2f); bits must be paid somewhere", gap)
	}
	if gap > 6 {
		t.Fatalf("rate overhead %.2fx absurdly high", gap)
	}
}

func TestBDRateGapErrors(t *testing.T) {
	if _, err := BDRateGap(nil, nil); err == nil {
		t.Fatal("short curves accepted")
	}
	a := []RDPoint{{QP: 2, KBytes: 100, PSNR: 40}, {QP: 31, KBytes: 10, PSNR: 25}}
	b := []RDPoint{{QP: 2, KBytes: 100, PSNR: 60}, {QP: 31, KBytes: 10, PSNR: 55}}
	if _, err := BDRateGap(a, b); err == nil {
		t.Fatal("non-overlapping curves accepted")
	}
}

func TestInterpolateRate(t *testing.T) {
	curve := []RDPoint{{QP: 2, KBytes: 100, PSNR: 40}, {QP: 8, KBytes: 50, PSNR: 35}}
	if r, ok := interpolateRate(curve, 37.5); !ok || r != 75 {
		t.Fatalf("interpolate mid = %v, %v", r, ok)
	}
	if _, ok := interpolateRate(curve, 50); ok {
		t.Fatal("out-of-range PSNR interpolated")
	}
	if r, ok := interpolateRate(curve, 40); !ok || r != 100 {
		t.Fatalf("endpoint = %v, %v", r, ok)
	}
}
