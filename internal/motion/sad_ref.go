package motion

import "pbpair/internal/video"

// Reference (scalar) SAD kernels. These are the original
// byte-at-a-time implementations the fast kernels replaced (SAD16's
// PSADBW assembly on amd64 and its SWAR row loop elsewhere, SADSelf's
// SWAR passes); they are kept exported as the ground truth for the
// differential equivalence harness (TestSADEquiv / FuzzSADEquiv) and
// must never be edited for speed. The contract is exact equivalence: for any legal input,
// SAD16(x) == SAD16Ref(x) — including the returned partial sum on
// early termination and the Stats deltas.

// SAD16Ref is the scalar reference implementation of SAD16. It scans
// row by row, accumulating |a−b| per pixel, counting a full row into
// stats.PixelOps before the early-exit check — the same per-row
// granularity the fast kernels preserve.
func SAD16Ref(cur, ref *video.Frame, cx, cy, rx, ry int, limit int32, stats *Stats) int32 {
	if stats != nil {
		stats.SADCalls++
	}
	var sum int32
	cw, rw := cur.Width, ref.Width
	for r := 0; r < video.MBSize; r++ {
		c := cur.Y[(cy+r)*cw+cx:]
		p := ref.Y[(ry+r)*rw+rx:]
		for i := 0; i < video.MBSize; i++ {
			d := int32(c[i]) - int32(p[i])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if stats != nil {
			stats.PixelOps += video.MBSize
		}
		if sum > limit {
			return sum
		}
	}
	return sum
}

// SADSelfRef is the scalar reference implementation of SADSelf.
func SADSelfRef(cur *video.Frame, cx, cy int, stats *Stats) int32 {
	if stats != nil {
		stats.SADCalls++
		stats.PixelOps += video.MBSize * video.MBSize
	}
	w := cur.Width
	var sum int32
	for r := 0; r < video.MBSize; r++ {
		row := cur.Y[(cy+r)*w+cx:]
		for i := 0; i < video.MBSize; i++ {
			sum += int32(row[i])
		}
	}
	mean := (sum + video.MBSize*video.MBSize/2) / (video.MBSize * video.MBSize)
	var dev int32
	for r := 0; r < video.MBSize; r++ {
		row := cur.Y[(cy+r)*w+cx:]
		for i := 0; i < video.MBSize; i++ {
			d := int32(row[i]) - mean
			if d < 0 {
				d = -d
			}
			dev += d
		}
	}
	return dev
}
