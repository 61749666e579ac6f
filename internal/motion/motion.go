// Package motion implements the ME / MC stage of the codec: 16x16 sum
// of absolute differences (SAD), full and three-step block search with
// a pluggable candidate cost, and integer-pel motion compensation.
//
// Motion estimation is the paper's energy lever: it is "the most power
// consuming operation in a predictive video compression algorithm", so
// every search reports exact operation counts (Stats) that the energy
// model converts to Joules. PBPAIR's probability-aware motion-vector
// selection plugs in through Config.Cost.
//
// All search and compensation functions are pure over their frame
// arguments and accumulate work counts only into the *Stats the caller
// passes, so concurrent searches over disjoint macroblocks are safe as
// long as each goroutine uses its own Stats — the contract behind the
// encoder's macroblock-row sharding (codec.Config.Workers). Stats is an
// additive tally; per-shard copies merged with Add in shard order equal
// a serial run's tally exactly.
//
// The integer-pel SAD row loop is SSE2 assembly on amd64 (PSADBW, in
// sad_amd64.s, the repository's only assembly) and the SWAR kernel
// sad16RowsSWAR on every other architecture; the other kernels are
// SWAR (internal/swar). Every fast kernel is bit-exact with its scalar
// *Ref twin (sad_ref.go, halfpel_ref.go), Stats deltas included, which
// the differential harness in equiv_test.go enforces.
package motion

import (
	"fmt"
	"math"

	"pbpair/internal/swar"
	"pbpair/internal/video"
)

// Vector is an integer-pel motion vector in luma pixels.
type Vector struct {
	X, Y int
}

// IsZero reports whether v is the zero vector.
func (v Vector) IsZero() bool { return v.X == 0 && v.Y == 0 }

// Stats counts the work a search performed. Counts are exact, not
// estimates: PixelOps reflects early termination.
//
// PixelOps contract: it counts pixels actually loaded from memory, at
// the granularity the kernel loads them — one 16-pixel row at a time.
// SAD16 adds video.MBSize per row after that row has been fully
// processed and before the early-exit check, so the row that trips the
// limit is counted (its pixels were loaded) and rows after it are not.
// A terminated scan therefore always reports a multiple of
// video.MBSize equal to 16 × (rows scanned). SADSelf always processes
// the whole block and counts MBSize². SAD16Half counts
// 3 × video.MBSize per row scanned (each interpolated pixel costs the
// bilinear blend plus the difference — see halfPelOpsPerPixel). The
// fast kernels load 8 (SWAR) or 16 (PSADBW) pixels per instruction but
// preserve exactly this per-row accounting, so energy-model outputs
// are unchanged.
type Stats struct {
	SADCalls int64 // 16x16 SAD evaluations started
	PixelOps int64 // per-pixel |a-b| operations actually executed
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.SADCalls += other.SADCalls
	s.PixelOps += other.PixelOps
}

// SAD16 computes the sum of absolute differences between the 16x16
// luma block at (cx, cy) in cur and the one at (rx, ry) in ref. The
// scan aborts once the partial sum exceeds limit (use math.MaxInt32 to
// disable), returning a value > limit. Callers guarantee both blocks
// lie inside their frames; a block that runs past the end of its plane
// panics before any pixel is read.
//
// The row loop is SSE2 assembly on amd64 (PSADBW, sad_amd64.s) and the
// SWAR kernel sad16RowsSWAR elsewhere. Both are bit-exact with
// SAD16Ref — identical return values (including early-exit partial
// sums, which are checked at the same row boundaries) and identical
// Stats deltas: one SADCalls, and video.MBSize PixelOps per row
// scanned.
func SAD16(cur, ref *video.Frame, cx, cy, rx, ry int, limit int32, stats *Stats) int32 {
	cw, rw := cur.Width, ref.Width
	co := cy*cw + cx
	po := ry*rw + rx
	sum, rows := sad16Rows(cur.Y[co:co+blockSpan(cw)], cw, ref.Y[po:po+blockSpan(rw)], rw, limit)
	if stats != nil {
		stats.SADCalls++
		stats.PixelOps += int64(rows) * video.MBSize
	}
	return sum
}

// blockSpan is the number of plane bytes from the first to the last
// pixel of a 16x16 block in a plane of the given stride. Slicing a
// block's span before calling sad16Rows is the bounds proof the
// assembly kernel relies on.
func blockSpan(stride int) int { return (video.MBSize-1)*stride + video.MBSize }

// sad16RowsSWAR is the portable SAD16 row loop: each row is two uint64
// loads and branch-free 8-lane arithmetic (see internal/swar). It
// returns the sum and the number of rows scanned, stopping after the
// first row whose running sum exceeds limit. Row r of the blocks
// starts at c[r*cw] and p[r*rw].
func sad16RowsSWAR(c []byte, cw int, p []byte, rw int, limit int32) (sum int32, rows int) {
	co, po := 0, 0
	for rows < video.MBSize {
		sum += swar.SADRow16(c[co:co+video.MBSize], p[po:po+video.MBSize])
		co += cw
		po += rw
		rows++
		if sum > limit {
			break
		}
	}
	return sum, rows
}

// SADSelf returns the deviation of the 16x16 block at (cx, cy) from its
// own mean: Σ|p − mean|. This is the H.263 test-model "intra SAD" used
// by the inter/intra fallback decision (SADself in the paper's Figure
// 4 pseudo-code).
// SADSelf is SWAR (internal/swar): the mean pass sums rows 16 bytes at a
// time, and the deviation pass reuses the |a−b| lanes against the mean
// replicated into every lane (the rounded mean of bytes always fits in
// a byte). Bit-exact with SADSelfRef.
func SADSelf(cur *video.Frame, cx, cy int, stats *Stats) int32 {
	if stats != nil {
		stats.SADCalls++
		stats.PixelOps += video.MBSize * video.MBSize
	}
	w := cur.Width
	var sum int32
	off := cy*w + cx
	for r := 0; r < video.MBSize; r++ {
		sum += swar.SumRow16(cur.Y[off : off+video.MBSize])
		off += w
	}
	mean := (sum + video.MBSize*video.MBSize/2) / (video.MBSize * video.MBSize)
	meanLanes := uint64(mean) * swar.LaneOnes
	var dev int32
	off = cy*w + cx
	for r := 0; r < video.MBSize; r++ {
		dev += swar.SADRow16Const(cur.Y[off:off+video.MBSize], meanLanes)
		off += w
	}
	return dev
}

// SearchKind selects the block-matching strategy.
type SearchKind int

// Search strategies. FullSearch examines every candidate in the window
// (the reference-encoder behaviour, maximally expensive); ThreeStep is
// the classic logarithmic search (much cheaper, slightly worse
// matches).
const (
	FullSearch SearchKind = iota + 1
	ThreeStep
)

// String names the search kind.
func (k SearchKind) String() string {
	switch k {
	case FullSearch:
		return "full"
	case ThreeStep:
		return "tss"
	default:
		return fmt.Sprintf("SearchKind(%d)", int(k))
	}
}

// PenaltyFunc returns a non-negative additive bias for a candidate
// motion vector; the search minimises SAD(mv) + penalty(mv). Because
// the penalty depends only on the vector, it is evaluated before the
// SAD, which keeps early-termination pruning exact. PBPAIR uses this
// hook to penalise references with low probability of correctness.
// Negative return values are treated as zero.
type PenaltyFunc func(mv Vector) int32

// Config parameterises a search.
type Config struct {
	// Range is the maximum |component| of a candidate vector (H.263
	// default ±15). Must be >= 0.
	Range int
	// Kind selects the strategy; zero value defaults to FullSearch.
	Kind SearchKind
	// Penalty optionally biases candidates; nil means raw SAD.
	Penalty PenaltyFunc
}

// Result is the outcome of a search.
type Result struct {
	MV   Vector
	SAD  int32 // raw SAD of the winning candidate
	Cost int32 // cost of the winning candidate (== SAD when Cost is nil)
}

// Search finds the best motion vector for macroblock (mbRow, mbCol) of
// cur against ref. Candidates are restricted so the reference block
// stays fully inside the frame (H.263 baseline). The zero vector is
// always evaluated first, so Search never fails.
func Search(cur, ref *video.Frame, mbRow, mbCol int, cfg Config, stats *Stats) Result {
	if cfg.Kind == 0 {
		cfg.Kind = FullSearch
	}
	if cfg.Range < 0 {
		cfg.Range = 0
	}
	cx := mbCol * video.MBSize
	cy := mbRow * video.MBSize

	// Legal displacement bounds keeping the block inside the frame.
	minX := -cx
	if -cfg.Range > minX {
		minX = -cfg.Range
	}
	maxX := cur.Width - video.MBSize - cx
	if cfg.Range < maxX {
		maxX = cfg.Range
	}
	minY := -cy
	if -cfg.Range > minY {
		minY = -cfg.Range
	}
	maxY := cur.Height - video.MBSize - cy
	if cfg.Range < maxY {
		maxY = cfg.Range
	}

	cw, rw := cur.Width, ref.Width
	co := cy*cw + cx
	s := searcher{
		cur: cur.Y[co : co+blockSpan(cw)], ref: ref.Y,
		cw: cw, rw: rw,
		refBase: cy*rw + cx,
		minX:    minX, maxX: maxX, minY: minY, maxY: maxY,
		penalty: cfg.Penalty,
		best:    Result{MV: Vector{}, SAD: math.MaxInt32, Cost: math.MaxInt32},
	}
	s.try(Vector{0, 0})

	switch cfg.Kind {
	case ThreeStep:
		s.threeStep(cfg.Range)
	default:
		s.full()
	}
	if stats != nil {
		stats.Add(s.stats)
	}
	return s.best
}

// searcher holds one Search's state. The block geometry is resolved
// once: cur is the current block's span, refBase the offset of the
// co-located reference block, so a candidate costs one slice
// expression and one sad16Rows call. Work counts accumulate in a
// local Stats with the same per-call and per-row contract as SAD16,
// and reach the caller's Stats once, at the end of Search.
type searcher struct {
	cur, ref               []byte
	cw, rw                 int
	refBase                int
	minX, maxX, minY, maxY int
	penalty                PenaltyFunc
	stats                  Stats
	best                   Result
}

// try evaluates one candidate, keeping it if it beats the incumbent.
// Ties prefer the earlier candidate (and hence smaller vectors, given
// the evaluation orders used below). The vector penalty is known
// before the SAD, so pruning stays exact: the SAD scan aborts once the
// candidate cannot beat the incumbent even with its penalty included.
func (s *searcher) try(mv Vector) {
	if mv.X < s.minX || mv.X > s.maxX || mv.Y < s.minY || mv.Y > s.maxY {
		return
	}
	var pen int32
	if s.penalty != nil {
		pen = s.penalty(mv)
		if pen < 0 {
			pen = 0
		}
		if pen >= s.best.Cost {
			return // cannot win even with SAD 0
		}
	}
	limit := s.best.Cost - pen
	po := s.refBase + mv.Y*s.rw + mv.X
	sad, rows := sad16Rows(s.cur, s.cw, s.ref[po:po+blockSpan(s.rw)], s.rw, limit)
	s.stats.SADCalls++
	s.stats.PixelOps += int64(rows) * video.MBSize
	if sad >= limit {
		return
	}
	s.best = Result{MV: mv, SAD: sad, Cost: sad + pen}
}

// full scans the whole window in raster order.
func (s *searcher) full() {
	for dy := s.minY; dy <= s.maxY; dy++ {
		for dx := s.minX; dx <= s.maxX; dx++ {
			if dx == 0 && dy == 0 {
				continue // already seeded
			}
			s.try(Vector{dx, dy})
		}
	}
}

// threeStep runs the classic three-step (logarithmic) search: evaluate
// the 8 neighbours of the current centre at the current step size,
// recentre on the winner, halve the step.
func (s *searcher) threeStep(searchRange int) {
	step := (searchRange + 1) / 2
	centre := Vector{0, 0}
	for step >= 1 {
		for _, d := range [8][2]int{
			{-1, -1}, {0, -1}, {1, -1},
			{-1, 0}, {1, 0},
			{-1, 1}, {0, 1}, {1, 1},
		} {
			s.try(Vector{centre.X + d[0]*step, centre.Y + d[1]*step})
		}
		centre = s.best.MV
		step /= 2
	}
}

// Compensate writes the motion-compensated prediction for macroblock
// (mbRow, mbCol) into dst: the 16x16 luma block of ref displaced by mv,
// plus the two 8x8 chroma blocks displaced by mv/2 (truncated toward
// zero, which keeps chroma references in bounds whenever the luma
// reference is). dst and ref must share dimensions.
func Compensate(dst, ref *video.Frame, mbRow, mbCol int, mv Vector) {
	x := mbCol * video.MBSize
	y := mbRow * video.MBSize
	w := ref.Width
	for r := 0; r < video.MBSize; r++ {
		src := ref.Y[(y+mv.Y+r)*w+x+mv.X:]
		copy(dst.Y[(y+r)*w+x:(y+r)*w+x+video.MBSize], src[:video.MBSize])
	}
	cmx, cmy := mv.X/2, mv.Y/2
	cw := ref.ChromaWidth()
	cx := mbCol * (video.MBSize / 2)
	cy := mbRow * (video.MBSize / 2)
	for r := 0; r < video.MBSize/2; r++ {
		srcOff := (cy+cmy+r)*cw + cx + cmx
		dstOff := (cy+r)*cw + cx
		copy(dst.Cb[dstOff:dstOff+video.MBSize/2], ref.Cb[srcOff:srcOff+video.MBSize/2])
		copy(dst.Cr[dstOff:dstOff+video.MBSize/2], ref.Cr[srcOff:srcOff+video.MBSize/2])
	}
}

// FullSearchCandidates returns the number of candidate evaluations a
// full search performs for an interior macroblock with the given
// range — used by tests and the energy-model calibration.
func FullSearchCandidates(searchRange int) int {
	n := 2*searchRange + 1
	return n * n
}
