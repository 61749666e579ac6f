// Command pbpair-mdlint is the repository's documentation gate
// (`make docs-lint`). It enforces three properties the markdown cannot
// check by itself:
//
//   - Every relative link in every *.md file resolves to a file that
//     exists (external http/https/mailto links and pure #fragment
//     anchors are skipped).
//   - OPERATIONS.md tracks the code: every flag registered by
//     cmd/pbpair-serve and cmd/pbpair-load must be documented, and so
//     must every server-level obs metric the serving layer registers.
//     A flag or metric added without a docs update fails the build.
//   - Documented command lines track the code: every -flag passed to
//     a cmd/ tool (`go run ./cmd/<tool> ...` or `<tool> ...`, in a
//     fenced code block or an inline code span of any *.md file) must
//     be registered by that tool. A flag removed without a docs
//     update fails the build.
//
// Usage:
//
//	pbpair-mdlint [repo-root]
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, err := Lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbpair-mdlint:", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "pbpair-mdlint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// Lint runs every check rooted at root and returns one line per
// problem found.
func Lint(root string) ([]string, error) {
	var problems []string
	mds, err := markdownFiles(root)
	if err != nil {
		return nil, err
	}
	tools, err := toolFlags(root)
	if err != nil {
		return nil, err
	}
	for _, md := range mds {
		ps, err := checkLinks(root, md)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
		ps, err = checkCommandFlags(root, md, tools)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}

	ops := filepath.Join(root, "OPERATIONS.md")
	opsText, err := os.ReadFile(ops)
	if err != nil {
		if os.IsNotExist(err) {
			return append(problems, "OPERATIONS.md: missing (the operator guide is mandatory)"), nil
		}
		return nil, err
	}
	ps, err := checkOperations(root, string(opsText))
	if err != nil {
		return nil, err
	}
	return append(problems, ps...), nil
}

// markdownFiles lists every .md under root, skipping VCS and vendorish
// directories.
func markdownFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			out = append(out, path)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks verifies every relative markdown link target in file
// exists on disk.
func checkLinks(root, file string) ([]string, error) {
	text, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, m := range linkRe.FindAllStringSubmatch(string(text), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
			strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(file), target)
		if _, err := os.Stat(resolved); err != nil {
			rel, rerr := filepath.Rel(root, file)
			if rerr != nil {
				rel = file
			}
			problems = append(problems, fmt.Sprintf("%s: broken link %q", rel, m[1]))
		}
	}
	return problems, nil
}

var (
	flagRe   = regexp.MustCompile(`flag\.(?:String|Int|Bool|Duration|Float64|Uint64)\("([^"]+)"`)
	metricRe = regexp.MustCompile(`"(server\.[a-z_]+)"`)
	// Per-session metrics are registered as prefix + "name"; see
	// session.registerMetrics.
	sessionMetricRe = regexp.MustCompile(`prefix \+ "([a-z_]+)"`)
)

// checkOperations cross-checks OPERATIONS.md against the live command
// flag sets and the serving layer's metric registrations.
func checkOperations(root, ops string) ([]string, error) {
	var problems []string
	for _, cmd := range []string{"pbpair-serve", "pbpair-load"} {
		src, err := os.ReadFile(filepath.Join(root, "cmd", cmd, "main.go"))
		if err != nil {
			return nil, err
		}
		for _, m := range flagRe.FindAllStringSubmatch(string(src), -1) {
			if !strings.Contains(ops, "`-"+m[1]) {
				problems = append(problems,
					fmt.Sprintf("OPERATIONS.md: %s flag -%s undocumented", cmd, m[1]))
			}
		}
	}

	serveDir := filepath.Join(root, "internal", "serve")
	entries, err := os.ReadDir(serveDir)
	if err != nil {
		return nil, err
	}
	metrics := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(serveDir, name))
		if err != nil {
			return nil, err
		}
		for _, m := range metricRe.FindAllStringSubmatch(string(src), -1) {
			metrics[m[1]] = true
		}
		for _, m := range sessionMetricRe.FindAllStringSubmatch(string(src), -1) {
			metrics["s<id>."+m[1]] = true
		}
	}
	if len(metrics) == 0 {
		return nil, fmt.Errorf("no serve metrics found under %s (lint regexes stale?)", serveDir)
	}
	var names []string
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !strings.Contains(ops, "`"+n+"`") {
			problems = append(problems, fmt.Sprintf("OPERATIONS.md: metric %s undocumented", n))
		}
	}
	return problems, nil
}

// toolFlags maps every command under root/cmd to the set of flags its
// non-test sources register (plus the flag package's built-in -h and
// -help).
func toolFlags(root string) (map[string]map[string]bool, error) {
	dirs, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	tools := map[string]map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join(root, "cmd", d.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		flags := map[string]bool{"h": true, "help": true}
		for _, f := range files {
			name := f.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			for _, m := range flagRe.FindAllStringSubmatch(string(src), -1) {
				flags[m[1]] = true
			}
		}
		tools[d.Name()] = flags
	}
	return tools, nil
}

var (
	codeSpanRe = regexp.MustCompile("`([^`\n]+)`")
	envAssign  = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*=`)
)

// checkCommandFlags reports every -flag on a documented command line
// of a cmd/ tool that the tool does not register. Command lines are
// the lines of fenced code blocks (backslash continuations joined) and
// inline code spans elsewhere.
func checkCommandFlags(root, file string, tools map[string]map[string]bool) ([]string, error) {
	text, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, file)
	if err != nil {
		rel = file
	}
	var problems []string
	check := func(lineNo int, line string) {
		for _, cmd := range shellCommands(line) {
			tool, args := toolInvocation(cmd, tools)
			for _, arg := range args {
				name := flagName(arg)
				if name != "" && !tools[tool][name] {
					problems = append(problems,
						fmt.Sprintf("%s:%d: %s has no flag -%s", rel, lineNo, tool, name))
				}
			}
		}
	}
	inFence := false
	pending, pendingLine := "", 0
	for i, line := range strings.Split(string(text), "\n") {
		lineNo := i + 1
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			pending = ""
			continue
		}
		if !inFence {
			for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
				check(lineNo, m[1])
			}
			continue
		}
		if pending == "" {
			pendingLine = lineNo
		}
		if trimmed := strings.TrimRight(line, " \t"); strings.HasSuffix(trimmed, "\\") {
			pending += strings.TrimSuffix(trimmed, "\\") + " "
			continue
		}
		check(pendingLine, pending+line)
		pending = ""
	}
	return problems, nil
}

// shellCommands splits a command line into its simple commands: it
// drops a trailing # comment and cuts at pipes, separators and
// redirections, keeping each command's words before the first
// redirection.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var cur []string
	redirected := false
	for _, w := range strings.Fields(line) {
		switch {
		case strings.HasPrefix(w, "#"):
			return append(cmds, cur)
		case w == "|" || w == "||" || w == "&&" || w == "&" || w == ";":
			cmds = append(cmds, cur)
			cur, redirected = nil, false
		case strings.ContainsAny(w, "<>"):
			redirected = true
		case !redirected:
			cur = append(cur, strings.TrimSuffix(w, ";"))
		}
	}
	return append(cmds, cur)
}

// toolInvocation recognises `go run <path>/cmd/<tool> args...` and
// `[path/]<tool> args...` (after any VAR=value prefixes) and returns
// the tool and its arguments; tool is "" for any other command.
func toolInvocation(words []string, tools map[string]map[string]bool) (tool string, args []string) {
	for len(words) > 0 && envAssign.MatchString(words[0]) {
		words = words[1:]
	}
	if len(words) >= 3 && words[0] == "go" && words[1] == "run" {
		for i := 2; i < len(words); i++ {
			if strings.HasPrefix(words[i], "-") {
				continue // a go run build flag
			}
			path := strings.TrimSuffix(words[i], "/")
			name := filepath.Base(path)
			if _, ok := tools[name]; ok && strings.HasSuffix(path, "cmd/"+name) {
				return name, words[i+1:]
			}
			return "", nil
		}
		return "", nil
	}
	if len(words) > 0 {
		name := filepath.Base(words[0])
		if _, ok := tools[name]; ok {
			return name, words[1:]
		}
	}
	return "", nil
}

// flagName returns the flag a command-line word sets ("-frames 4" and
// "--frames=4" both give "frames"), or "" when the word is not a flag
// (a value such as -0.5, or a lone dash).
func flagName(word string) string {
	name := strings.TrimLeft(word, "-")
	if name == word || len(word)-len(name) > 2 || name == "" {
		return ""
	}
	if c := name[0]; !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
		return ""
	}
	if i := strings.IndexByte(name, '='); i >= 0 {
		name = name[:i]
	}
	return name
}
