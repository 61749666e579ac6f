//go:build !amd64

package motion

// sad16Rows is the portable SWAR row loop on architectures without an
// assembly kernel.
func sad16Rows(c []byte, cw int, p []byte, rw int, limit int32) (sum int32, rows int) {
	return sad16RowsSWAR(c, cw, p, rw, limit)
}
