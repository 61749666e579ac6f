// Package swar holds the SIMD-within-a-register pixel primitives
// shared by the repository's hot kernels: the encoder's SAD kernels
// and half-pel interpolation (internal/motion), the decoder-side
// concealment costs (internal/conceal) and the quality metrics
// (internal/metrics). On amd64 the integer-pel SAD16 row loop runs
// PSADBW assembly instead (internal/motion/sad_amd64.s); SADRow16 is
// its portable kernel on every other architecture, and still serves
// SADSelf, SAD16Half and concealment everywhere. A 16-pixel macroblock row is two uint64 loads;
// per-byte arithmetic then runs 8 lanes at a time in ordinary integer
// registers — branch-free, no per-pixel loop.
//
// Every kernel built on these primitives is bit-exact with its scalar
// reference (the *Ref originals kept next to each fast kernel): only
// non-negative integer additions are reordered, which is exact.
//
// The |a−b| kernel widens bytes into four 16-bit lanes per word (even
// and odd bytes separately), biases by 0x8000 per lane so the
// subtraction cannot borrow across lanes, and resolves the absolute
// value with a computed per-lane sign mask. Lane sums are folded with
// a single multiply: x * 0x0001000100010001 accumulates all four
// 16-bit lanes into the top lane (partial sums stay < 2^16, so no
// carries cross lanes).
package swar

import "encoding/binary"

// Lane masks and constants for 16-bit-lane arithmetic over packed
// bytes. Exported so callers can pre-replicate constants into lanes
// (e.g. a mean or threshold byte value as v * LaneOnes).
const (
	// LaneMask selects the even-byte 16-bit lanes of a packed word.
	LaneMask = 0x00FF00FF00FF00FF
	// LaneBias adds 0x8000 to each 16-bit lane.
	LaneBias = 0x8000800080008000
	// LaneOnes holds 1 in each 16-bit lane; multiplying by it folds
	// lane values into the top lane, and multiplying a byte value by it
	// replicates that value into every lane.
	LaneOnes = 0x0001000100010001

	lane7FFF   = 0x7FFF7FFF7FFF7FFF
	avgLowMask = 0x7F7F7F7F7F7F7F7F // clears cross-byte carry bits after >>1
)

// AbsDiff4 returns per-lane |a−b| for four 16-bit lanes each holding a
// value in [0, 255]. biased = 0x8000 + (a−b) per lane never borrows;
// bit 15 of each lane is then the "a >= b" flag, from which a full
// 0xFFFF mask selects between biased−0x8000 and 0x8000−biased.
func AbsDiff4(a, b uint64) uint64 {
	biased := a + LaneBias - b
	pos := (biased >> 15) & LaneOnes
	neg := (pos ^ LaneOnes) * 0xFFFF
	return (biased ^ neg) - (lane7FFF + pos)
}

// SADRow16 returns Σ|c[i]−p[i]| over 16 bytes. c and p must have at
// least 16 bytes.
func SADRow16(c, p []byte) int32 {
	ca := binary.LittleEndian.Uint64(c[0:8])
	cb := binary.LittleEndian.Uint64(c[8:16])
	pa := binary.LittleEndian.Uint64(p[0:8])
	pb := binary.LittleEndian.Uint64(p[8:16])
	d := AbsDiff4(ca&LaneMask, pa&LaneMask) +
		AbsDiff4((ca>>8)&LaneMask, (pa>>8)&LaneMask) +
		AbsDiff4(cb&LaneMask, pb&LaneMask) +
		AbsDiff4((cb>>8)&LaneMask, (pb>>8)&LaneMask)
	return int32((d * LaneOnes) >> 48)
}

// SADRow16Const returns Σ|c[i]−m| over 16 bytes against a constant
// byte value m already replicated into 16-bit lanes (m * LaneOnes).
func SADRow16Const(c []byte, mLanes uint64) int32 {
	ca := binary.LittleEndian.Uint64(c[0:8])
	cb := binary.LittleEndian.Uint64(c[8:16])
	d := AbsDiff4(ca&LaneMask, mLanes) +
		AbsDiff4((ca>>8)&LaneMask, mLanes) +
		AbsDiff4(cb&LaneMask, mLanes) +
		AbsDiff4((cb>>8)&LaneMask, mLanes)
	return int32((d * LaneOnes) >> 48)
}

// SumRow16 returns Σc[i] over 16 bytes.
func SumRow16(c []byte) int32 {
	ca := binary.LittleEndian.Uint64(c[0:8])
	cb := binary.LittleEndian.Uint64(c[8:16])
	s := ca&LaneMask + (ca>>8)&LaneMask + cb&LaneMask + (cb>>8)&LaneMask
	return int32((s * LaneOnes) >> 48)
}

// AvgRound8 returns the per-byte rounded average (a+b+1)>>1 of two
// 8-byte words — H.263 two-point half-pel interpolation, 8 pixels at
// a time. Identity: (a+b+1)>>1 == (a|b) − ((a^b)>>1) per byte.
func AvgRound8(a, b uint64) uint64 {
	return (a | b) - ((a^b)>>1)&avgLowMask
}

// QuadAvg8 returns the per-byte (a+b+c+d+2)>>2 of four 8-byte words —
// the H.263 four-point half-pel position. Bytes widen into 16-bit
// lanes (max lane sum 4·255+2 = 1022 < 2^10, so lanes never carry),
// are averaged, and repack.
func QuadAvg8(a, b, c, d uint64) uint64 {
	even := a&LaneMask + b&LaneMask + c&LaneMask + d&LaneMask + 2*LaneOnes
	odd := (a>>8)&LaneMask + (b>>8)&LaneMask + (c>>8)&LaneMask + (d>>8)&LaneMask + 2*LaneOnes
	return (even>>2)&LaneMask | ((odd>>2)&LaneMask)<<8
}

// sqLanes4 accumulates the squares of the four 16-bit lanes of d into
// a scalar. Lane squares (≤ 255² = 65025) do not pack back into 16-bit
// lanes without overflowing the fold, so the four lanes are extracted
// and squared individually — still branch-free and bounds-check-free,
// which is where the win over the per-pixel reference comes from.
func sqLanes4(d uint64) uint64 {
	d0 := d & 0xFFFF
	d1 := (d >> 16) & 0xFFFF
	d2 := (d >> 32) & 0xFFFF
	d3 := d >> 48
	return d0*d0 + d1*d1 + d2*d2 + d3*d3
}

// SSDCountRow16 returns, over 16 bytes, the sum of squared differences
// Σ(a[i]−b[i])² and the number of positions where |a[i]−b[i]| exceeds
// the threshold replicated in thLanes ((th+1)·LaneOnes subtrahend form:
// pass gtBias = (0x8000 − th − 1)·LaneOnes... see GTBias). Both metrics
// come from one set of |a−b| lane words, so a caller measuring PSNR
// and bad pixels traverses the planes once.
func SSDCountRow16(a, b []byte, gtBias uint64) (ssd uint64, count int32) {
	aa := binary.LittleEndian.Uint64(a[0:8])
	ab := binary.LittleEndian.Uint64(a[8:16])
	ba := binary.LittleEndian.Uint64(b[0:8])
	bb := binary.LittleEndian.Uint64(b[8:16])
	d0 := AbsDiff4(aa&LaneMask, ba&LaneMask)
	d1 := AbsDiff4((aa>>8)&LaneMask, (ba>>8)&LaneMask)
	d2 := AbsDiff4(ab&LaneMask, bb&LaneMask)
	d3 := AbsDiff4((ab>>8)&LaneMask, (bb>>8)&LaneMask)
	ssd = sqLanes4(d0) + sqLanes4(d1) + sqLanes4(d2) + sqLanes4(d3)
	// |d| > th  ⇔  |d| + 0x8000 − th − 1 has lane bit 15 set
	// (|d| ≤ 255 and th ∈ [0, 254], so lanes cannot carry).
	gt := ((d0 + gtBias) >> 15) & LaneOnes
	gt += ((d1 + gtBias) >> 15) & LaneOnes
	gt += ((d2 + gtBias) >> 15) & LaneOnes
	gt += ((d3 + gtBias) >> 15) & LaneOnes
	// Each lane of gt holds ≤ 4; one fold sums them.
	return ssd, int32((gt * LaneOnes) >> 48)
}

// GTBias replicates the ">" comparison bias for threshold th
// (0 ≤ th ≤ 254) into 16-bit lanes for SSDCountRow16 / CountGTRow16:
// adding it to a lane holding |d| sets lane bit 15 exactly when
// |d| > th.
func GTBias(th int) uint64 {
	return uint64(0x8000-th-1) * LaneOnes
}

// CountGTRow16 returns the number of positions i in the 16-byte rows
// where |a[i]−b[i]| > th, with gtBias = GTBias(th).
func CountGTRow16(a, b []byte, gtBias uint64) int32 {
	aa := binary.LittleEndian.Uint64(a[0:8])
	ab := binary.LittleEndian.Uint64(a[8:16])
	ba := binary.LittleEndian.Uint64(b[0:8])
	bb := binary.LittleEndian.Uint64(b[8:16])
	gt := ((AbsDiff4(aa&LaneMask, ba&LaneMask) + gtBias) >> 15) & LaneOnes
	gt += ((AbsDiff4((aa>>8)&LaneMask, (ba>>8)&LaneMask) + gtBias) >> 15) & LaneOnes
	gt += ((AbsDiff4(ab&LaneMask, bb&LaneMask) + gtBias) >> 15) & LaneOnes
	gt += ((AbsDiff4((ab>>8)&LaneMask, (bb>>8)&LaneMask) + gtBias) >> 15) & LaneOnes
	return int32((gt * LaneOnes) >> 48)
}

// SqDiffSumRow16 returns Σ(a[i]−b[i])² over 16 bytes.
func SqDiffSumRow16(a, b []byte) uint64 {
	aa := binary.LittleEndian.Uint64(a[0:8])
	ab := binary.LittleEndian.Uint64(a[8:16])
	ba := binary.LittleEndian.Uint64(b[0:8])
	bb := binary.LittleEndian.Uint64(b[8:16])
	return sqLanes4(AbsDiff4(aa&LaneMask, ba&LaneMask)) +
		sqLanes4(AbsDiff4((aa>>8)&LaneMask, (ba>>8)&LaneMask)) +
		sqLanes4(AbsDiff4(ab&LaneMask, bb&LaneMask)) +
		sqLanes4(AbsDiff4((ab>>8)&LaneMask, (bb>>8)&LaneMask))
}

// Plane-level kernels. The per-row primitives above pay a function
// call and slice-header setup every 16 bytes, which swamps the lane
// arithmetic on whole-frame traversals (a QCIF luma plane is ~1.6k
// rows); these loop internally so the call overhead is paid once per
// plane. a and b must have equal length; a tail shorter than 16 bytes
// is handled scalar.

// SqDiffSum returns Σ(a[i]−b[i])² over the whole slice pair.
func SqDiffSum(a, b []byte) uint64 {
	var sum uint64
	n := len(a) &^ 15
	for i := 0; i < n; i += 16 {
		aa := binary.LittleEndian.Uint64(a[i : i+8 : i+8])
		ab := binary.LittleEndian.Uint64(a[i+8 : i+16 : i+16])
		ba := binary.LittleEndian.Uint64(b[i : i+8 : i+8])
		bb := binary.LittleEndian.Uint64(b[i+8 : i+16 : i+16])
		sum += sqLanes4(AbsDiff4(aa&LaneMask, ba&LaneMask)) +
			sqLanes4(AbsDiff4((aa>>8)&LaneMask, (ba>>8)&LaneMask)) +
			sqLanes4(AbsDiff4(ab&LaneMask, bb&LaneMask)) +
			sqLanes4(AbsDiff4((ab>>8)&LaneMask, (bb>>8)&LaneMask))
	}
	for i := n; i < len(a); i++ {
		d := int64(a[i]) - int64(b[i])
		sum += uint64(d * d)
	}
	return sum
}

// CountGT returns the number of positions where |a[i]−b[i]| > th over
// the whole slice pair. th must be in [0, 254] (see GTBias); a
// threshold ≥ 255 can never be exceeded by a byte difference, so
// callers handle it as a constant zero.
func CountGT(a, b []byte, th int) int {
	gtBias := GTBias(th)
	var count int64
	n := len(a) &^ 15
	for i := 0; i < n; i += 16 {
		aa := binary.LittleEndian.Uint64(a[i : i+8 : i+8])
		ab := binary.LittleEndian.Uint64(a[i+8 : i+16 : i+16])
		ba := binary.LittleEndian.Uint64(b[i : i+8 : i+8])
		bb := binary.LittleEndian.Uint64(b[i+8 : i+16 : i+16])
		gt := ((AbsDiff4(aa&LaneMask, ba&LaneMask) + gtBias) >> 15) & LaneOnes
		gt += ((AbsDiff4((aa>>8)&LaneMask, (ba>>8)&LaneMask) + gtBias) >> 15) & LaneOnes
		gt += ((AbsDiff4(ab&LaneMask, bb&LaneMask) + gtBias) >> 15) & LaneOnes
		gt += ((AbsDiff4((ab>>8)&LaneMask, (bb>>8)&LaneMask) + gtBias) >> 15) & LaneOnes
		count += int64((gt * LaneOnes) >> 48)
	}
	for i := n; i < len(a); i++ {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		if d > th {
			count++
		}
	}
	return int(count)
}

// SSDCount fuses SqDiffSum and CountGT into a single traversal: one
// set of |a−b| lane words feeds both the squared-error sum and the
// threshold count. th must be in [0, 254] (see GTBias).
func SSDCount(a, b []byte, th int) (ssd uint64, count int) {
	gtBias := GTBias(th)
	var cnt int64
	n := len(a) &^ 15
	for i := 0; i < n; i += 16 {
		aa := binary.LittleEndian.Uint64(a[i : i+8 : i+8])
		ab := binary.LittleEndian.Uint64(a[i+8 : i+16 : i+16])
		ba := binary.LittleEndian.Uint64(b[i : i+8 : i+8])
		bb := binary.LittleEndian.Uint64(b[i+8 : i+16 : i+16])
		d0 := AbsDiff4(aa&LaneMask, ba&LaneMask)
		d1 := AbsDiff4((aa>>8)&LaneMask, (ba>>8)&LaneMask)
		d2 := AbsDiff4(ab&LaneMask, bb&LaneMask)
		d3 := AbsDiff4((ab>>8)&LaneMask, (bb>>8)&LaneMask)
		ssd += sqLanes4(d0) + sqLanes4(d1) + sqLanes4(d2) + sqLanes4(d3)
		gt := ((d0 + gtBias) >> 15) & LaneOnes
		gt += ((d1 + gtBias) >> 15) & LaneOnes
		gt += ((d2 + gtBias) >> 15) & LaneOnes
		gt += ((d3 + gtBias) >> 15) & LaneOnes
		cnt += int64((gt * LaneOnes) >> 48)
	}
	for i := n; i < len(a); i++ {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		ssd += uint64(d * d)
		if d > th {
			cnt++
		}
	}
	return ssd, int(cnt)
}
