package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// scaffold builds a minimal fake repo with one serve flag, one load
// flag, one server metric and one per-session metric.
func scaffold(t *testing.T, ops string) string {
	t.Helper()
	root := t.TempDir()
	write(t, filepath.Join(root, "cmd", "pbpair-serve", "main.go"),
		`package main
func main() { _ = flag.Int("farm-workers", 0, "") }`)
	write(t, filepath.Join(root, "cmd", "pbpair-load", "main.go"),
		`package main
func main() { _ = flag.Int("clients", 1, "") }`)
	write(t, filepath.Join(root, "internal", "serve", "server.go"),
		`package serve
var a = reg.Counter("server.encodes")
var b = reg.Counter(prefix + "frames_encoded")`)
	write(t, filepath.Join(root, "OPERATIONS.md"), ops)
	return root
}

const completeOps = "Flags: `-farm-workers` and `-clients`.\n" +
	"Metrics: `server.encodes` and `s<id>.frames_encoded`.\n"

func TestLintClean(t *testing.T) {
	root := scaffold(t, completeOps)
	problems, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean repo reported problems: %v", problems)
	}
}

func TestLintBrokenLink(t *testing.T) {
	root := scaffold(t, completeOps)
	write(t, filepath.Join(root, "README.md"),
		"See [the guide](OPERATIONS.md) and [gone](docs/NOPE.md).")
	problems, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "docs/NOPE.md") {
		t.Fatalf("want exactly the broken-link problem, got %v", problems)
	}
}

func TestLintSkipsExternalAndAnchors(t *testing.T) {
	root := scaffold(t, completeOps)
	write(t, filepath.Join(root, "README.md"),
		"[a](https://example.com/x) [b](#section) [c](OPERATIONS.md#flags) [d](mailto:x@y.z)")
	problems, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("external/anchor links flagged: %v", problems)
	}
}

func TestLintUndocumentedFlagAndMetric(t *testing.T) {
	root := scaffold(t, "Flags: `-clients`. Metrics: `s<id>.frames_encoded`.\n")
	problems, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	var sawFlag, sawMetric bool
	for _, p := range problems {
		if strings.Contains(p, "-farm-workers") {
			sawFlag = true
		}
		if strings.Contains(p, "server.encodes") {
			sawMetric = true
		}
	}
	if !sawFlag || !sawMetric {
		t.Fatalf("want undocumented flag + metric problems, got %v", problems)
	}
}

func TestLintMissingOperations(t *testing.T) {
	root := scaffold(t, completeOps)
	if err := os.Remove(filepath.Join(root, "OPERATIONS.md")); err != nil {
		t.Fatal(err)
	}
	problems, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "OPERATIONS.md") {
		t.Fatalf("want the missing-guide problem, got %v", problems)
	}
}

// TestLintCommandFlags pins the flag-drift check: a -flag on a
// documented command line of a cmd/ tool must be registered by that
// tool, wherever the command line sits (fenced block, backslash
// continuation, inline code span), while words that are not that
// tool's flags are left alone.
func TestLintCommandFlags(t *testing.T) {
	for _, tc := range []struct {
		name, md string
		stale    []string // flags expected to be reported, in order
	}{
		{"clean", "```sh\n" +
			"go run ./cmd/pbpair-load -clients 4 --clients=8 -h\n" +
			"/tmp/pbpair-serve -farm-workers 2 \\\n    -farm-workers 3 > /tmp/out -x 2>&1\n" +
			"GOMAXPROCS=1 pbpair-load -clients 2 | head -n 3 && go test ./cmd/pbpair-load -run X\n" +
			"go build -o /tmp/pbpair-serve ./cmd/pbpair-serve   # then run it -bogus\n" +
			"pbpair-load -clients -0.5 -\n" +
			"```\n" +
			"Prose -seeds, `pbpair-load` then `-seeds`, and cmd/pbpair-load/main.go -seeds.\n", nil},
		{"fenced", "```\ngo run ./cmd/pbpair-load -clients 4 -seeds 3\n```\n", []string{"-seeds"}},
		{"continuation", "```\n/tmp/pbpair-serve -farm-workers 2 \\\n  -dec-workers 4\n```\n", []string{"-dec-workers"}},
		{"inline", "Run `pbpair-serve -farm-workers 2 -dec-workers 4` or `go run ./cmd/pbpair-load -seeds 2`.\n",
			[]string{"-dec-workers", "-seeds"}},
		{"wrong tool", "```\npbpair-serve -clients 4\n```\n", []string{"-clients"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := scaffold(t, completeOps)
			write(t, filepath.Join(root, "README.md"), tc.md)
			problems, err := Lint(root)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != len(tc.stale) {
				t.Fatalf("want %d stale-flag problems %v, got %v", len(tc.stale), tc.stale, problems)
			}
			for i, flag := range tc.stale {
				if !strings.HasPrefix(problems[i], "README.md:") || !strings.HasSuffix(problems[i], "has no flag "+flag) {
					t.Errorf("problem %d = %q, want README.md's %s", i, problems[i], flag)
				}
			}
		})
	}
}
