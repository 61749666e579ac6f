package motion

// sad16Rows is the SSE2 row loop in sad_amd64.s: per row two unaligned
// 16-byte loads, one PSADBW, a fold of its two 64-bit halves into the
// running sum and the early-exit check against limit. It returns the
// sum and the number of rows scanned, exactly as sad16RowsSWAR does.
// The assembly reads unchecked memory: callers must have proven that
// c holds 15·cw+16 bytes and p holds 15·rw+16 bytes (SAD16 and the
// searcher do so with ordinary slice expressions). SSE2 is part of the
// amd64 baseline, so no CPU feature check is needed.
//
//go:noescape
func sad16Rows(c []byte, cw int, p []byte, rw int, limit int32) (sum int32, rows int)
