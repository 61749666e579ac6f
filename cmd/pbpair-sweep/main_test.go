package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the pbpair-sweep binary built once for every test below.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pbpair-sweep-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "pbpair-sweep")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build pbpair-sweep: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestGolden runs the command at tiny scale and compares stdout byte
// for byte with testdata/<name>.golden: the CSV sweep over a 2×2 grid
// once per engine (the single-trial Monte-Carlo sweep, the multi-trial
// one and the analytic grid), and the rate-distortion table.
// Regenerate one with
//
//	go run ./cmd/pbpair-sweep -frames <frames> <args> > cmd/pbpair-sweep/testdata/<name>.golden
//
// only when the change to the output is intended.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames int
		args   []string
	}{
		{"trials1", 4, []string{"-csv", "-intra-th", "0,0.9", "-plr", "0,0.2", "-trials", "1"}},
		{"trials4", 4, []string{"-csv", "-intra-th", "0,0.9", "-plr", "0,0.2", "-trials", "4"}},
		{"analytic", 4, []string{"-csv", "-intra-th", "0,0.9", "-plr", "0,0.2", "-analytic"}},
		{"rd", 4, []string{"-rd"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"-frames", fmt.Sprint(tc.frames)}, tc.args...)
			got, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("pbpair-sweep %v: %v", args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("pbpair-sweep %v output differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", args, tc.name, got, want)
			}
		})
	}
}

// TestRejectsFlagCombinations pins that trial counts the command would
// otherwise silently ignore or misread fail fast, with an error naming
// -trials.
func TestRejectsFlagCombinations(t *testing.T) {
	for _, args := range [][]string{
		{"-trials", "0"},
		{"-trials", "-3"},
		{"-analytic", "-trials", "4"},
		{"-rd", "-trials", "2"},
	} {
		cmd := exec.Command(bin, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("pbpair-sweep %v: want a non-zero exit, got %v", args, err)
			continue
		}
		if !strings.Contains(stderr.String(), "-trials") {
			t.Errorf("pbpair-sweep %v: error %q does not name -trials", args, stderr.String())
		}
	}
}
