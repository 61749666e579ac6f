package main

import (
	"math"
	"sort"
)

// tailPermille lists the percentiles the tail rule may report, highest
// first, in permille (999 = p99.9).
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankOf returns the 1-based nearest rank of the permille-th percentile
// of n samples: ceil(permille·n/1000), clamped to [1, n].
func rankOf(permille, n int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile (in permille) of the
// ascending slice sorted, and how many samples lie strictly beyond it.
// An empty slice yields NaN.
func percentile(sorted []float64, permille int) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	r := rankOf(permille, n)
	return sorted[r-1], n - r
}

// tailRule picks the highest percentile in tailPermille with at least
// minBeyond of n samples beyond it. ok is false when even the median
// lacks that support (n < 20); the median is returned then.
func tailRule(n int) (permille int, ok bool) {
	for _, pm := range tailPermille {
		if n-rankOf(pm, n) >= minBeyond {
			return pm, true
		}
	}
	return 500, false
}

// summary is a latency distribution as the benchmark prints it: the
// median, the p99, and the highest percentile the tail rule supports,
// each with its sample support.
type summary struct {
	N         int
	P50       float64
	P99       float64
	P99Beyond int
	TailPM    int // permille chosen by tailRule
	Tail      float64
	TailOK    bool
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s)}
	out.P50, _ = percentile(s, 500)
	out.P99, out.P99Beyond = percentile(s, 990)
	out.TailPM, out.TailOK = tailRule(len(s))
	out.Tail, _ = percentile(s, out.TailPM)
	return out
}

func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 500)
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
