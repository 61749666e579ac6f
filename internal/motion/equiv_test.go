package motion

import (
	"math"
	"math/rand"
	"testing"

	"pbpair/internal/video"
)

// Differential harness: the fast kernels must be bit-exact with the
// scalar references in sad_ref.go / halfpel_ref.go — same return
// values (including early-exit partial sums) and same Stats deltas —
// across the full input domain. SAD16 is checked three ways: SAD16
// itself (the PSADBW assembly on amd64), the portable SWAR row loop
// (sad16SWAR, compiled on every architecture) and SAD16Ref. Seeded
// randomized property tests run on every `go test`; FuzzSADEquiv
// extends the same checks to fuzzer-chosen inputs.

// extremeFrame is randFrame (motion_test.go) plus extreme patches —
// all-0 and all-255 16x16 corner blocks — so saturated lanes and
// zero-difference rows get exercised.
func extremeFrame(rng *rand.Rand, w, h int) *video.Frame {
	f := randFrame(rng, w, h)
	for r := 0; r < video.MBSize; r++ {
		for c := 0; c < video.MBSize; c++ {
			f.Y[r*w+c] = 0
			f.Y[r*w+w-video.MBSize+c] = 255
		}
	}
	return f
}

// sad16SWAR is SAD16 with the portable row loop in place of
// sad16Rows, so the harness checks the SWAR kernel on every
// architecture, including amd64 where SAD16 runs the assembly.
func sad16SWAR(cur, ref *video.Frame, cx, cy, rx, ry int, limit int32, stats *Stats) int32 {
	cw, rw := cur.Width, ref.Width
	co := cy*cw + cx
	po := ry*rw + rx
	sum, rows := sad16RowsSWAR(cur.Y[co:co+blockSpan(cw)], cw, ref.Y[po:po+blockSpan(rw)], rw, limit)
	if stats != nil {
		stats.SADCalls++
		stats.PixelOps += int64(rows) * video.MBSize
	}
	return sum
}

// checkSAD16 runs SAD16, sad16SWAR and SAD16Ref on one input and
// reports any difference in return value or Stats delta.
func checkSAD16(t testing.TB, cur, ref *video.Frame, cx, cy, rx, ry int, limit int32) {
	t.Helper()
	var sf, ss, sr Stats
	got := SAD16(cur, ref, cx, cy, rx, ry, limit, &sf)
	gotSWAR := sad16SWAR(cur, ref, cx, cy, rx, ry, limit, &ss)
	want := SAD16Ref(cur, ref, cx, cy, rx, ry, limit, &sr)
	if got != want || gotSWAR != want {
		t.Fatalf("SAD16(%d,%d vs %d,%d limit=%d) = %d, SWAR %d, ref %d", cx, cy, rx, ry, limit, got, gotSWAR, want)
	}
	if sf != sr || ss != sr {
		t.Fatalf("SAD16(%d,%d vs %d,%d limit=%d) stats diverge: fast %+v SWAR %+v ref %+v", cx, cy, rx, ry, limit, sf, ss, sr)
	}
}

func TestSADEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cur := extremeFrame(rng, video.QCIFWidth, video.QCIFHeight)
	ref := extremeFrame(rng, video.QCIFWidth, video.QCIFHeight)
	maxX := video.QCIFWidth - video.MBSize
	maxY := video.QCIFHeight - video.MBSize
	for i := 0; i < 2000; i++ {
		cx, cy := rng.Intn(maxX+1), rng.Intn(maxY+1)
		rx, ry := rng.Intn(maxX+1), rng.Intn(maxY+1)
		full := SAD16Ref(cur, ref, cx, cy, rx, ry, math.MaxInt32, nil)
		// No early exit, the first row always trips, every row
		// boundary near the middle of the scan, and random limits
		// that frequently trigger early exit.
		for _, limit := range []int32{
			math.MaxInt32, -1, 0, 1, full / 2, full - 1, full,
			int32(rng.Intn(5000)), int32(rng.Intn(200)),
		} {
			checkSAD16(t, cur, ref, cx, cy, rx, ry, limit)
		}
	}
}

// TestSAD16OutOfFramePanics: the assembly kernel reads unchecked
// memory, so SAD16 must prove both blocks lie inside their planes
// first. A block whose last row runs past the end of the plane, or
// that starts before it, must panic instead of reading beyond it,
// whatever the limit.
func TestSAD16OutOfFramePanics(t *testing.T) {
	const w, h = 48, 48
	cur := flatFrame(w, h, 10)
	ref := flatFrame(w, h, 200)
	cases := []struct {
		name           string
		cx, cy, rx, ry int
	}{
		{"ref below the plane", 0, 0, 0, h - video.MBSize + 1},
		{"ref past the last pixel", 0, 0, w - video.MBSize + 1, h - video.MBSize},
		{"cur below the plane", 0, h - video.MBSize + 1, 0, 0},
		{"ref before the plane", 16, 16, -1, 0},
		{"cur far outside", 0, 4 * h, 0, 0},
	}
	for _, tc := range cases {
		for _, limit := range []int32{0, math.MaxInt32} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (limit %d): SAD16(%d,%d vs %d,%d) did not panic",
							tc.name, limit, tc.cx, tc.cy, tc.rx, tc.ry)
					}
				}()
				SAD16(cur, ref, tc.cx, tc.cy, tc.rx, tc.ry, limit, nil)
			}()
		}
	}
}

// TestSearchMatchesRefSearch pins Search's bookkeeping — the
// precomputed block offsets and the locally accumulated work counts —
// against searchRef, a direct transcription of the search that calls
// SAD16Ref once per candidate: same Result and same Stats, for both
// strategies, with and without a penalty, on interior and edge
// macroblocks.
func TestSearchMatchesRefSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := smoothFrame(rng, video.QCIFWidth, video.QCIFHeight)
	cur := shiftFrame(ref, 3, -2)
	for i := range cur.Y {
		if rng.Intn(4) == 0 {
			cur.Y[i] = uint8(rng.Intn(256))
		}
	}
	penalty := func(mv Vector) int32 { return int32(37*(mv.X*mv.X+mv.Y*mv.Y)%500 - 100) }
	rows, cols := video.QCIFHeight/video.MBSize, video.QCIFWidth/video.MBSize
	for _, kind := range []SearchKind{FullSearch, ThreeStep} {
		for _, pen := range []PenaltyFunc{nil, penalty} {
			for _, r := range []int{0, 3, 15, 20} {
				for mb := 0; mb < rows*cols; mb++ {
					cfg := Config{Range: r, Kind: kind, Penalty: pen}
					var got, want Stats
					res := Search(cur, ref, mb/cols, mb%cols, cfg, &got)
					exp := searchRef(cur, ref, mb/cols, mb%cols, cfg, &want)
					if res != exp || got != want {
						t.Fatalf("%v range %d penalty %v mb %d: Search %+v %+v, ref %+v %+v",
							kind, r, pen != nil, mb, res, got, exp, want)
					}
				}
			}
		}
	}
}

// searchRef is Search written the obvious way: the same window, raster
// and three-step orders, tie-breaking, penalty skip and early-exit
// limit, with one SAD16Ref call per candidate.
func searchRef(cur, ref *video.Frame, mbRow, mbCol int, cfg Config, stats *Stats) Result {
	cx, cy := mbCol*video.MBSize, mbRow*video.MBSize
	minX, maxX := max(-cx, -cfg.Range), min(cur.Width-video.MBSize-cx, cfg.Range)
	minY, maxY := max(-cy, -cfg.Range), min(cur.Height-video.MBSize-cy, cfg.Range)
	best := Result{SAD: math.MaxInt32, Cost: math.MaxInt32}
	try := func(mv Vector) {
		if mv.X < minX || mv.X > maxX || mv.Y < minY || mv.Y > maxY {
			return
		}
		var pen int32
		if cfg.Penalty != nil {
			pen = max(cfg.Penalty(mv), 0)
			if pen >= best.Cost {
				return
			}
		}
		limit := best.Cost - pen
		if sad := SAD16Ref(cur, ref, cx, cy, cx+mv.X, cy+mv.Y, limit, stats); sad < limit {
			best = Result{MV: mv, SAD: sad, Cost: sad + pen}
		}
	}
	try(Vector{})
	if cfg.Kind == ThreeStep {
		centre := Vector{}
		for step := (cfg.Range + 1) / 2; step >= 1; step /= 2 {
			for _, d := range [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
				try(Vector{centre.X + d[0]*step, centre.Y + d[1]*step})
			}
			centre = best.MV
		}
		return best
	}
	for dy := minY; dy <= maxY; dy++ {
		for dx := minX; dx <= maxX; dx++ {
			if dx != 0 || dy != 0 {
				try(Vector{dx, dy})
			}
		}
	}
	return best
}

func TestSADSelfEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cur := extremeFrame(rng, video.QCIFWidth, video.QCIFHeight)
	for i := 0; i < 2000; i++ {
		cx := rng.Intn(video.QCIFWidth - video.MBSize + 1)
		cy := rng.Intn(video.QCIFHeight - video.MBSize + 1)
		var sf, sr Stats
		got := SADSelf(cur, cx, cy, &sf)
		want := SADSelfRef(cur, cx, cy, &sr)
		if got != want {
			t.Fatalf("SADSelf(%d,%d) = %d, ref %d", cx, cy, got, want)
		}
		if sf != sr {
			t.Fatalf("SADSelf stats diverge: fast %+v ref %+v", sf, sr)
		}
	}
}

func TestHalfPelEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cur := extremeFrame(rng, video.QCIFWidth, video.QCIFHeight)
	ref := extremeFrame(rng, video.QCIFWidth, video.QCIFHeight)
	mbCols := video.QCIFWidth / video.MBSize
	mbRows := video.QCIFHeight / video.MBSize
	for i := 0; i < 3000; i++ {
		mbCol, mbRow := rng.Intn(mbCols), rng.Intn(mbRows)
		cx, cy := mbCol*video.MBSize, mbRow*video.MBSize
		hv := HalfVector{X: rng.Intn(31) - 15, Y: rng.Intn(31) - 15}
		if !halfFootprintLegal(ref, cx, cy, hv) {
			continue
		}
		var limit int32 = math.MaxInt32
		if i%2 == 1 {
			limit = int32(rng.Intn(4000))
		}
		var sf, sr Stats
		got := SAD16Half(cur, ref, cx, cy, hv, limit, &sf)
		want := SAD16HalfRef(cur, ref, cx, cy, hv, limit, &sr)
		if got != want {
			t.Fatalf("SAD16Half(mb %d,%d hv %+v limit=%d) = %d, ref %d", mbRow, mbCol, hv, limit, got, want)
		}
		if sf != sr {
			t.Fatalf("SAD16Half stats diverge: fast %+v ref %+v", sf, sr)
		}

		dstFast := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
		dstRef := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
		CompensateHalf(dstFast, ref, mbRow, mbCol, hv)
		CompensateHalfRef(dstRef, ref, mbRow, mbCol, hv)
		if !framesEqual(dstFast, dstRef) {
			t.Fatalf("CompensateHalf diverges at mb %d,%d hv %+v", mbRow, mbCol, hv)
		}
	}
}

func framesEqual(a, b *video.Frame) bool {
	if len(a.Y) != len(b.Y) {
		return false
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			return false
		}
	}
	for i := range a.Cb {
		if a.Cb[i] != b.Cb[i] || a.Cr[i] != b.Cr[i] {
			return false
		}
	}
	return true
}

// FuzzSADEquiv lets the fuzzer choose block contents, displacements
// and limits; fast and reference kernels must agree exactly. The two
// 16x16 blocks are carved from the fuzz data, so the full byte domain
// is reachable.
func FuzzSADEquiv(f *testing.F) {
	f.Add(make([]byte, 512), uint16(0), uint16(0), int32(math.MaxInt32), false)
	f.Add(make([]byte, 512), uint16(3), uint16(70), int32(100), true)
	seed := make([]byte, 512)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, uint16(40), uint16(41), int32(2000), true)

	f.Fuzz(func(t *testing.T, data []byte, posA, posB uint16, limit int32, half bool) {
		const w, h = 48, 48 // 3x3 macroblocks
		if len(data) == 0 {
			data = []byte{0}
		}
		// Both frames are filled from the fuzz data, cycling, so every
		// byte pattern the fuzzer finds lands in pixel memory.
		cur := video.NewFrame(w, h)
		ref := video.NewFrame(w, h)
		for i := range cur.Y {
			cur.Y[i] = data[i%len(data)]
			ref.Y[i] = data[(i*13+7)%len(data)]
		}
		maxOff := w - video.MBSize
		cx := int(posA) % (maxOff + 1)
		cy := int(posA) / 251 % (maxOff + 1)
		rx := int(posB) % (maxOff + 1)
		ry := int(posB) / 251 % (maxOff + 1)

		checkSAD16(t, cur, ref, cx, cy, rx, ry, limit)

		gotSelf := SADSelf(cur, cx, cy, nil)
		wantSelf := SADSelfRef(cur, cx, cy, nil)
		if gotSelf != wantSelf {
			t.Fatalf("SADSelf diverges: %d vs %d", gotSelf, wantSelf)
		}

		if half {
			hv := HalfVector{X: rx - cx + 1, Y: ry - cy + 1}
			if halfFootprintLegal(ref, cx, cy, hv) {
				var hf, hr Stats
				g := SAD16Half(cur, ref, cx, cy, hv, limit, &hf)
				wnt := SAD16HalfRef(cur, ref, cx, cy, hv, limit, &hr)
				if g != wnt || hf != hr {
					t.Fatalf("SAD16Half diverges: %d/%+v vs %d/%+v", g, hf, wnt, hr)
				}
			}
		}
	})
}
