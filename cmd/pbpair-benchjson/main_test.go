package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pbpair/internal/motion
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSAD16-4        	 3907915	       152.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkSAD16Ref-4     	 1478163	       405.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkEncodeParallel/workers=1-4	     100	   7613479 ns/op	   29432 B/op	      27 allocs/op
BenchmarkNoMem 	 1000	       99.5 ns/op
--- PASS: TestSomething (0.00s)
PASS
ok  	pbpair/internal/motion	12.3s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" {
		t.Fatalf("env = %s/%s, want linux/amd64", doc.GOOS, doc.GOARCH)
	}
	if doc.CPU != "Intel(R) Xeon(R) CPU @ 2.10GHz" {
		t.Fatalf("cpu = %q", doc.CPU)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkSAD16" || b.Iters != 3907915 || b.NsPerOp != 152.5 || b.BPerOp != 0 || b.AllocsOp != 0 {
		t.Fatalf("first benchmark = %+v", b)
	}
	sub := doc.Benchmarks[2]
	if sub.Name != "BenchmarkEncodeParallel/workers=1" || sub.BPerOp != 29432 || sub.AllocsOp != 27 {
		t.Fatalf("sub-benchmark = %+v", sub)
	}
	if noMem := doc.Benchmarks[3]; noMem.Name != "BenchmarkNoMem" || noMem.NsPerOp != 99.5 || noMem.BPerOp != 0 {
		t.Fatalf("no-benchmem line = %+v", noMem)
	}
	if doc.Date == "" || doc.GoVersion == "" {
		t.Fatal("missing date or go version")
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkHalf-4 123",             // too few fields
		"BenchmarkBad-4 notanint 1 ns/op", // bad iteration count
		"BenchmarkBad-4 100 xx ns/op",     // bad ns value
		"BenchmarkBad-4 100 12 B/op",      // no ns/op at all
	} {
		if r, ok := parseLine(line); ok {
			t.Fatalf("parseLine(%q) accepted: %+v", line, r)
		}
	}
}

const serveSample = `goos: linux
goarch: amd64
BenchmarkServeFarm-4	     300	   3200000 ns/op	      2510 frames/s	      1.91 MB/s	      880 p50_us	      4100 p99_us
BenchmarkServeThroughput-4	     200	   3020000 ns/op	       331.1 frames/s
`

func TestParseExtraMetrics(t *testing.T) {
	doc, err := Parse(strings.NewReader(serveSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	farm := doc.Benchmarks[0]
	if farm.Name != "BenchmarkServeFarm" {
		t.Fatalf("name = %q", farm.Name)
	}
	for unit, want := range map[string]float64{
		"frames/s": 2510, "MB/s": 1.91, "p50_us": 880, "p99_us": 4100,
	} {
		if got := farm.Extra[unit]; got != want {
			t.Errorf("Extra[%q] = %v, want %v", unit, got, want)
		}
	}
}

func TestCheckRequired(t *testing.T) {
	doc, err := Parse(strings.NewReader(serveSample))
	if err != nil {
		t.Fatal(err)
	}
	ok := []string{
		"BenchmarkServeFarm:frames/s",
		"BenchmarkServeFarm:p99_us",
		"BenchmarkServeThroughput:ns/op",
		" BenchmarkServeFarm:p50_us ", // tolerated whitespace
	}
	if err := CheckRequired(doc, ok); err != nil {
		t.Fatalf("CheckRequired rejected a complete document: %v", err)
	}
	for _, spec := range []string{
		"BenchmarkGone:frames/s",          // missing benchmark
		"BenchmarkServeThroughput:p99_us", // missing metric
	} {
		if err := CheckRequired(doc, []string{spec}); err == nil {
			t.Errorf("CheckRequired(%q) passed, want schema-drift error", spec)
		}
	}
	if err := CheckRequired(doc, []string{"no-colon"}); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestCheckMin(t *testing.T) {
	doc, err := Parse(strings.NewReader(serveSample))
	if err != nil {
		t.Fatal(err)
	}
	ok := []string{
		"BenchmarkServeFarm:frames/s=1",
		" BenchmarkServeThroughput:ns/op=0.5 ", // tolerated whitespace
	}
	if err := CheckMin(doc, ok); err != nil {
		t.Fatalf("CheckMin rejected metrics above their thresholds: %v", err)
	}
	for _, spec := range []string{
		"BenchmarkServeFarm:frames/s=1e18",  // below threshold
		"BenchmarkGone:frames/s=1",          // missing benchmark
		"BenchmarkServeThroughput:p99_us=1", // missing metric
	} {
		if err := CheckMin(doc, []string{spec}); err == nil {
			t.Errorf("CheckMin(%q) passed, want threshold error", spec)
		}
	}
	for _, spec := range []string{"no-equals:unit", "NoColon=5", "BenchmarkServeFarm:frames/s=notanumber"} {
		if err := CheckMin(doc, []string{spec}); err == nil {
			t.Errorf("malformed spec %q accepted", spec)
		}
	}
}

// repeatedSample is `go test -count 3` output: every benchmark prints
// one result line per run, interleaved with its siblings. The fast
// kernel's worst sample is slower than the reference's best, but its
// median is faster. BenchmarkFarm reports a custom metric on two of
// its lines only (an even count), and BenchmarkShared also exists in
// a second package, where it must stay a separate entry.
const repeatedSample = `goos: linux
goarch: amd64
pkg: pbpair/internal/motion
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSAD16-4        	 3000000	       40.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSAD16Ref-4     	 1000000	       400.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSAD16-4        	 3100000	       500.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSAD16Ref-4     	 1100000	       300.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSAD16-4        	 2900000	       42.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSAD16Ref-4     	  900000	       350.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFarm-4	     300	   3000000 ns/op	      2000 frames/s
BenchmarkFarm-4	     310	   3100000 ns/op	      3000 frames/s
BenchmarkFarm-4	     290	   2900000 ns/op
BenchmarkShared-4	     100	   10.0 ns/op
pkg: pbpair/internal/dct
BenchmarkShared-4	     100	   20.0 ns/op
`

func TestParseRepeatedSamples(t *testing.T) {
	doc, err := Parse(strings.NewReader(repeatedSample))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range doc.Benchmarks {
		names = append(names, b.Name)
	}
	if got := strings.Join(names, ","); got != "BenchmarkSAD16,BenchmarkSAD16Ref,BenchmarkFarm,BenchmarkShared,BenchmarkShared" {
		t.Fatalf("entries = %s, want one per benchmark and package in first-seen order", got)
	}
	sad := doc.Benchmarks[0]
	if sad.Samples != 3 || sad.NsPerOp != 42 || sad.Iters != 3000000 {
		t.Fatalf("BenchmarkSAD16 = %+v, want 3 samples, median 42 ns/op, median 3000000 iters", sad)
	}
	if sad.Min["ns/op"] != 40 || sad.Max["ns/op"] != 500 {
		t.Fatalf("BenchmarkSAD16 spread = %v / %v, want 40 / 500", sad.Min, sad.Max)
	}
	if ref := doc.Benchmarks[1]; ref.NsPerOp != 350 {
		t.Fatalf("BenchmarkSAD16Ref median = %v, want 350", ref.NsPerOp)
	}
	farm := doc.Benchmarks[2]
	if farm.Samples != 3 || farm.NsPerOp != 3000000 || farm.Extra["frames/s"] != 2500 {
		t.Fatalf("BenchmarkFarm = %+v, want median ns/op 3000000 and frames/s 2500 over the two lines that report it", farm)
	}
	if farm.Min["frames/s"] != 2000 || farm.Max["frames/s"] != 3000 {
		t.Fatalf("BenchmarkFarm frames/s spread = %v / %v", farm.Min, farm.Max)
	}
	if a, b := doc.Benchmarks[3], doc.Benchmarks[4]; a.NsPerOp != 10 || b.NsPerOp != 20 || a.Samples != 0 || b.Samples != 0 {
		t.Fatalf("same name in two packages merged: %+v / %+v", a, b)
	}

	// The gates judge the median: SAD16's 500 ns/op outlier does not
	// fail -check-pairs, and -min sees frames/s = 2500.
	if err := CheckPairs(doc); err != nil {
		t.Fatalf("CheckPairs on medians: %v", err)
	}
	if err := CheckMin(doc, []string{"BenchmarkFarm:frames/s=2500"}); err != nil {
		t.Fatalf("CheckMin on the median: %v", err)
	}
	if err := CheckMin(doc, []string{"BenchmarkFarm:frames/s=2600"}); err == nil {
		t.Fatal("CheckMin passed on the best sample instead of the median")
	}
	doc.Benchmarks[0].NsPerOp = 351 // a median above the reference's
	if err := CheckPairs(doc); err == nil {
		t.Fatal("CheckPairs passed with the fast median above the reference median")
	}
}
