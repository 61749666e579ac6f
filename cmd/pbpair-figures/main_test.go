package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the pbpair-figures binary built once for every test below.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pbpair-figures-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "pbpair-figures")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build pbpair-figures: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestGolden runs the command at small scale and compares stdout byte
// for byte with testdata/<name>.golden. The goldens pin what users see
// — table layout and every printed digit — across refactors of the
// experiment engines underneath. Most cases run 4 frames; the Figure 6
// views run 40, the smallest window that contains the default loss
// events, so their lossy traces differ from the clean ones.
// Regenerate one with
//
//	go run ./cmd/pbpair-figures -frames <frames> <args> > cmd/pbpair-figures/testdata/<name>.golden
//
// only when the change to the output is intended.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames int
		args   []string
	}{
		{"fig5", 4, []string{"-fig", "5"}},
		{"fig5-analytic", 4, []string{"-fig", "5", "-analytic"}},
		{"stats-trials8", 4, []string{"-fig", "stats", "-trials", "8"}},
		{"headline", 4, []string{"-fig", "headline"}},
		{"devices", 4, []string{"-fig", "devices"}},
		{"content", 4, []string{"-fig", "content"}},
		{"fig6", 40, []string{"-fig", "6"}},
		{"recovery", 40, []string{"-fig", "recovery"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"-frames", fmt.Sprint(tc.frames)}, tc.args...)
			got, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("pbpair-figures %v: %v", args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("pbpair-figures %v output differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", args, tc.name, got, want)
			}
		})
	}
}

// TestRejectsFlagCombinations pins that flag values the command would
// otherwise silently ignore or misread fail fast, with an error naming
// the offending flag.
func TestRejectsFlagCombinations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-fig", "5", "-trials", "-3"}, "-trials"},
		{[]string{"-fig", "5", "-analytic", "-trials", "4"}, "-analytic"},
		{[]string{"-fig", "stats"}, "-trials"},
		{[]string{"-fig", "stats", "-trials", "1"}, "-trials"},
		{[]string{"-fig", "stats", "-analytic"}, "-trials"},
		{[]string{"-fig", "stats", "-analytic", "-trials", "8"}, "-analytic"},
		{[]string{"-fig", "6", "-trials", "4"}, "-trials"},
		{[]string{"-fig", "content", "-analytic"}, "-analytic"},
		{[]string{"-fig", "recovery", "-analytic"}, "-analytic"},
		{[]string{"-fig", "recovery", "-plr", "0.2"}, "-plr"},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("pbpair-figures %v: want a non-zero exit, got %v", tc.args, err)
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("pbpair-figures %v: error %q does not name %s", tc.args, stderr.String(), tc.want)
		}
	}
}
