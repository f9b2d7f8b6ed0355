// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against expectations written in the source,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is a trailing line comment of the form
//
//	// want "regexp" `another regexp`
//
// every diagnostic reported on that line must match one of the regexps,
// and every regexp must be matched by exactly one diagnostic. Backquoted
// patterns are raw — no escape processing — which keeps regexps with
// backslashes readable.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vax780/internal/analysis"
)

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run loads testdata/src/<pkg> and every local package it imports,
// applies the analyzer over all of them in dependency order, as in a
// real load, and reports any mismatch between
// expected and actual diagnostics as test failures. Expectations are
// honored in every loaded package, not just the named one — a fixture
// can assert diagnostics in its dependencies.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	pkgs, err := analysis.LoadTestdataPackages(srcRoot, pkg)
	if err != nil {
		t.Fatalf("loading %s: %v", pkg, err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	type expectation struct {
		rx      *regexp.Regexp
		matched bool
	}
	var files []string
	for _, p := range pkgs {
		files = append(files, packageFiles(t, srcRoot, p.Path)...)
	}
	want := make(map[key][]*expectation)
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := key{filepath.Base(name), i + 1}
			for _, q := range splitQuoted(t, name, i+1, m[1]) {
				rx, err := regexp.Compile(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, q, err)
				}
				want[k] = append(want[k], &expectation{rx: rx})
			}
		}
	}

	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		found := false
		for _, e := range want[k] {
			if !e.matched && e.rx.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, exps := range want {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, e.rx)
			}
		}
	}
}

func packageFiles(t *testing.T, srcRoot, pkg string) []string {
	t.Helper()
	dir := filepath.Join(srcRoot, filepath.FromSlash(pkg))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// splitQuoted extracts the quoted strings of a want clause: double-quoted
// (Go escape processing applies) or backquoted (raw).
func splitQuoted(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				t.Fatalf("%s:%d: unterminated want pattern %q", file, line, s)
			}
			q, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", file, line, s[:end+1], err)
			}
			out = append(out, q)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern %q", file, line, s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[2+end:])
		default:
			t.Fatalf("%s:%d: malformed want clause at %q", file, line, s)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: empty want clause", file, line)
	}
	return out
}
