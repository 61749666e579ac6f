// pbpair-benchjson converts `go test -bench -benchmem` output read
// from stdin into a machine-readable JSON document, so benchmark
// trajectories can be committed and diffed across revisions (see
// BENCH_kernels.json at the repo root, regenerated by
// `make bench-json`).
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./internal/motion/ | pbpair-benchjson > BENCH.json
//	pbpair-benchjson -in bench.txt -out BENCH.json
//	pbpair-benchjson -check-pairs -out BENCH.json   # also gate fast vs *Ref
//
// The emitted document records the environment (date, go version,
// GOOS/GOARCH, the cpu line go test prints) and one entry per
// benchmark: name, iterations, ns/op, and — when -benchmem was on —
// B/op and allocs/op. When a benchmark has several result lines in one
// package (`go test -count N`), its entry holds the median of each
// figure over those samples, the sample count and the per-unit min and
// max; the -check-pairs, -require and -min gates judge the median.
// Lines that are not benchmark results are ignored, so the raw
// `go test` output can be piped in unfiltered.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark: a parsed result line, or the median of
// several (go test -count N). Custom metrics emitted with
// b.ReportMetric (frames/s, p99_us, …) land in Extra keyed by their
// unit string. Samples, Min and Max are set only for a merged entry:
// the number of result lines and, per unit ("ns/op" and every custom
// unit), the smallest and largest sample.
type Result struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iters"`
	NsPerOp  float64            `json:"ns_op"`
	BPerOp   int64              `json:"b_op,omitempty"`
	AllocsOp int64              `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Samples  int                `json:"samples,omitempty"`
	Min      map[string]float64 `json:"min,omitempty"`
	Max      map[string]float64 `json:"max,omitempty"`
}

// Document is the emitted JSON root.
type Document struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pbpair-benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	inPath := flag.String("in", "", "benchmark output to parse (default stdin)")
	outPath := flag.String("out", "", "JSON file to write (default stdout)")
	checkPairs := flag.Bool("check-pairs", false, "fail if any BenchmarkX is slower than its BenchmarkXRef sibling")
	require := flag.String("require", "", "comma-separated name:unit specs that must be present (schema gate), e.g. 'BenchmarkServeFarm:frames/s'")
	min := flag.String("min", "", "comma-separated name:unit=value specs that must be present AND at or above value (threshold gate), e.g. 'BenchmarkSimBatch:speedup_x=20'")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	doc, err := Parse(in)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found in input")
	}

	if *checkPairs {
		if err := CheckPairs(doc); err != nil {
			return err
		}
	}
	if *require != "" {
		if err := CheckRequired(doc, strings.Split(*require, ",")); err != nil {
			return err
		}
	}
	if *min != "" {
		if err := CheckMin(doc, strings.Split(*min, ",")); err != nil {
			return err
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *outPath != "" {
		return os.WriteFile(*outPath, buf, 0o644)
	}
	_, err = os.Stdout.Write(buf)
	return err
}

// Parse reads `go test -bench` output and collects every benchmark
// result plus the environment header lines (goos/goarch/cpu). Result
// lines repeating a benchmark of the same package are merged into one
// entry (see merge), kept at the position of the first.
func Parse(in io.Reader) (*Document, error) {
	doc := &Document{
		Date:      time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	type key struct{ pkg, name string }
	var (
		pkg    string
		groups [][]Result
		index  = make(map[key]int)
	)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				k := key{pkg, r.Name}
				i, seen := index[k]
				if !seen {
					i = len(groups)
					index[k] = i
					groups = append(groups, nil)
				}
				groups[i] = append(groups[i], r)
			}
		}
	}
	for _, g := range groups {
		doc.Benchmarks = append(doc.Benchmarks, merge(g))
	}
	return doc, sc.Err()
}

// merge folds the result lines of one benchmark into one Result. A
// single line is returned as is. For several, every figure is the
// median over the lines that report it, and Samples, Min and Max
// record the count and the per-unit extremes.
func merge(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	values := make(map[string][]float64)
	var iters, bop, allocs []float64
	for _, r := range rs {
		iters = append(iters, float64(r.Iters))
		bop = append(bop, float64(r.BPerOp))
		allocs = append(allocs, float64(r.AllocsOp))
		values["ns/op"] = append(values["ns/op"], r.NsPerOp)
		for unit, v := range r.Extra {
			values[unit] = append(values[unit], v)
		}
	}
	out := Result{
		Name:     rs[0].Name,
		Iters:    int64(math.Round(median(iters))),
		BPerOp:   int64(math.Round(median(bop))),
		AllocsOp: int64(math.Round(median(allocs))),
		Samples:  len(rs),
		Min:      make(map[string]float64, len(values)),
		Max:      make(map[string]float64, len(values)),
	}
	for unit, vs := range values {
		m := median(vs)
		if unit == "ns/op" {
			out.NsPerOp = m
		} else {
			if out.Extra == nil {
				out.Extra = make(map[string]float64)
			}
			out.Extra[unit] = m
		}
		out.Min[unit], out.Max[unit] = vs[0], vs[len(vs)-1] // median sorted vs
	}
	return out
}

// median sorts vs in place and returns its median (the mean of the
// two middle values for an even count).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   1234567   95.31 ns/op   12 B/op   0 allocs/op
//
// Unit fields beyond ns/op are optional; unknown trailing metrics are
// ignored.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iters: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, err = strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false
			}
			seenNs = true
		case "B/op":
			r.BPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsOp, _ = strconv.ParseInt(val, 10, 64)
		default:
			// A b.ReportMetric custom unit (frames/s, MB/s, p99_us…).
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = f
			}
		}
	}
	return r, seenNs
}

// CheckRequired is the committed-benchmark schema gate: every
// "name:unit" spec must resolve to a parsed benchmark carrying that
// unit ("ns/op" or a custom b.ReportMetric unit). A rename, a dropped
// benchmark, or a metric that silently stopped being reported fails
// here instead of producing a quietly hollow JSON document.
func CheckRequired(doc *Document, specs []string) error {
	byName := make(map[string]Result, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	var bad []string
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, unit, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("malformed -require spec %q (want name:unit)", spec)
		}
		b, found := byName[name]
		if !found {
			bad = append(bad, fmt.Sprintf("%s: benchmark missing", name))
			continue
		}
		if unit == "ns/op" {
			continue // presence implies ns/op: parseLine requires it
		}
		if _, ok := b.Extra[unit]; !ok {
			bad = append(bad, fmt.Sprintf("%s: metric %q missing", name, unit))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmark schema drift:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// CheckMin is the committed-benchmark threshold gate: every
// "name:unit=value" spec must resolve to a parsed benchmark whose
// metric for that unit ("ns/op" or a custom b.ReportMetric unit) is
// at or above value. Unlike CheckRequired, which only pins the
// schema, this fails the build when a documented performance claim
// (e.g. the batch engine's >= 20x dedup speedup) stops being true on
// the measuring machine.
func CheckMin(doc *Document, specs []string) error {
	byName := make(map[string]Result, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	var bad []string
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		nameUnit, valStr, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("malformed -min spec %q (want name:unit=value)", spec)
		}
		name, unit, ok := strings.Cut(nameUnit, ":")
		if !ok {
			return fmt.Errorf("malformed -min spec %q (want name:unit=value)", spec)
		}
		want, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("malformed -min spec %q: %v", spec, err)
		}
		b, found := byName[name]
		if !found {
			bad = append(bad, fmt.Sprintf("%s: benchmark missing", name))
			continue
		}
		got, found := b.Extra[unit]
		if unit == "ns/op" {
			got, found = b.NsPerOp, true
		}
		if !found {
			bad = append(bad, fmt.Sprintf("%s: metric %q missing", name, unit))
			continue
		}
		if got < want {
			bad = append(bad, fmt.Sprintf("%s: %s = %g below threshold %g", name, unit, got, want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmark threshold gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// CheckPairs enforces the repo's kernel-pair invariant: every
// fast/reference benchmark pair (BenchmarkX alongside BenchmarkXRef,
// the differential-harness convention from ARCHITECTURE.md) must have
// the fast side at or under the reference's ns/op. A fast kernel
// slower than the scalar original it replaced is a regression even
// when all outputs still match; run with a real -benchtime (not 1x)
// so the comparison is statistically meaningful.
func CheckPairs(doc *Document) error {
	byName := make(map[string]float64, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b.NsPerOp
	}
	var bad []string
	for _, b := range doc.Benchmarks {
		if !strings.HasSuffix(b.Name, "Ref") {
			continue
		}
		fast, ok := byName[strings.TrimSuffix(b.Name, "Ref")]
		if !ok {
			continue
		}
		if fast > b.NsPerOp {
			bad = append(bad, fmt.Sprintf("%s %.1f ns/op > %s %.1f ns/op",
				strings.TrimSuffix(b.Name, "Ref"), fast, b.Name, b.NsPerOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("fast kernel slower than its reference:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
