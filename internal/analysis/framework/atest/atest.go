// Package atest is a miniature analysistest: it loads fixture packages
// from an analyzer's testdata/src directory, runs the analyzer, and checks
// reported diagnostics against `// want "regexp"` comments — the same
// fixture convention as golang.org/x/tools/go/analysis/analysistest, so
// fixtures would port unchanged.
package atest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// Run loads testdata/src/<pkg> for each named fixture package, applies the
// analyzer, and reports mismatches between actual diagnostics and // want
// expectations on t.
//
//mimonet:testonly-ok test harness: every analyzer's fixture test runs through it
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgNames ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	loader := &framework.Loader{
		ModRoot:     filepath.Join(src, "__none__"), // fixtures resolve via FixtureRoot
		ModPath:     "__fixture_module__",
		FixtureRoot: src,
	}
	for _, name := range pkgNames {
		pkg, err := loader.LoadDir(filepath.Join(src, filepath.FromSlash(name)), name)
		if err != nil {
			t.Fatalf("loading fixture %q: %v", name, err)
		}
		diags, err := framework.RunAnalyzers([]*framework.Package{pkg}, []*framework.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on fixture %q: %v", a.Name, name, err)
		}
		checkExpectations(t, pkg, diags)
	}
}

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// checkExpectations compares diagnostics against // want comments.
func checkExpectations(t *testing.T, pkg *framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, raw := range splitWantArgs(text[idx+len("// want "):]) {
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx, raw: raw})
				}
			}
		}
	}
	// A line can produce several diagnostics and carry several want
	// patterns, and one pattern may match more than one of the line's
	// messages. Pairing greedily in encounter order can strand a valid
	// assignment (pattern "alpha" grabs the "alpha and beta" diagnostic,
	// leaving pattern "alpha and beta" unmatched), so pair by maximum
	// bipartite matching instead — order-insensitive on both sides.
	matchedDiag := make([]bool, len(diags))
	diagToWant := make([]int, len(diags))
	for i := range diagToWant {
		diagToWant[i] = -1
	}
	var augment func(w int, visited []bool) bool
	augment = func(w int, visited []bool) bool {
		for d := range diags {
			if visited[d] || wants[w].file != diags[d].Pos.Filename || wants[w].line != diags[d].Pos.Line {
				continue
			}
			if !wants[w].rx.MatchString(diags[d].Message) {
				continue
			}
			visited[d] = true
			if diagToWant[d] == -1 || augment(diagToWant[d], visited) {
				diagToWant[d] = w
				wants[w].matched = true
				matchedDiag[d] = true
				return true
			}
		}
		return false
	}
	for w := range wants {
		augment(w, make([]bool, len(diags)))
	}
	for d, ok := range matchedDiag {
		if !ok {
			t.Errorf("unexpected diagnostic: %s", diags[d])
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// splitWantArgs parses the arguments of a want comment: a sequence of
// double-quoted or backquoted strings.
func splitWantArgs(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return out
			}
			if unq, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, unq)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return out
		}
	}
	return out
}
