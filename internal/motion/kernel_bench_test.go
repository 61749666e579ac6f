package motion

import (
	"math"
	"math/rand"
	"testing"

	"pbpair/internal/video"
)

// Micro-benchmarks pairing each SAD kernel with its scalar reference;
// the gap between BenchmarkX and BenchmarkXRef is the fast kernel's
// speedup tracked in BENCH_kernels.json (make bench-json).

func benchFrames() (*video.Frame, *video.Frame) {
	rng := rand.New(rand.NewSource(11))
	return randFrame(rng, video.QCIFWidth, video.QCIFHeight),
		randFrame(rng, video.QCIFWidth, video.QCIFHeight)
}

// sadSink keeps the SAD benchmarks' results live, so the compiler
// cannot drop a call whose result is unused.
var sadSink int32

func BenchmarkSAD16(b *testing.B) {
	cur, ref := benchFrames()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sadSink = SAD16(cur, ref, 32, 32, 33, 31, math.MaxInt32, nil)
	}
}

func BenchmarkSAD16Ref(b *testing.B) {
	cur, ref := benchFrames()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sadSink = SAD16Ref(cur, ref, 32, 32, 33, 31, math.MaxInt32, nil)
	}
}

func BenchmarkSADSelf(b *testing.B) {
	cur, _ := benchFrames()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SADSelf(cur, 32, 32, nil)
	}
}

func BenchmarkSADSelfRef(b *testing.B) {
	cur, _ := benchFrames()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SADSelfRef(cur, 32, 32, nil)
	}
}

func BenchmarkSAD16Half(b *testing.B) {
	cur, ref := benchFrames()
	hv := HalfVector{X: 3, Y: -1} // both fractional: the 4-point case
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SAD16Half(cur, ref, 32, 32, hv, math.MaxInt32, nil)
	}
}

func BenchmarkSAD16HalfRef(b *testing.B) {
	cur, ref := benchFrames()
	hv := HalfVector{X: 3, Y: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SAD16HalfRef(cur, ref, 32, 32, hv, math.MaxInt32, nil)
	}
}

func BenchmarkCompensateHalf(b *testing.B) {
	_, ref := benchFrames()
	dst := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
	hv := HalfVector{X: 3, Y: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompensateHalf(dst, ref, 2, 2, hv)
	}
}

func BenchmarkCompensateHalfRef(b *testing.B) {
	_, ref := benchFrames()
	dst := video.NewFrame(video.QCIFWidth, video.QCIFHeight)
	hv := HalfVector{X: 3, Y: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompensateHalfRef(dst, ref, 2, 2, hv)
	}
}
