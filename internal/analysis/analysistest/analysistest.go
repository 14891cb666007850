// Package analysistest runs one analyzer over testdata packages and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest but built on the
// repository's own stdlib-only framework.
//
// Testdata packages live under internal/analysis/testdata/src/<path>;
// the <path> becomes the package's synthetic import path, so
// analyzers scoped by path suffix (simdeterminism's internal/des,
// snapshotaccounting's reissue/hedge) are exercised by naming the
// testdata directory accordingly, e.g. testdata/src/detsim/internal/des.
//
// Expectations are trailing comments of the form
//
//	x := seedA ^ seedB // want `ad-hoc arithmetic`
//
// where the backquoted (or double-quoted) string is a regexp matched
// against the diagnostics reported on that line. Several expectations
// may follow one want. Diagnostics are checked after //lint:allow
// suppression, so testdata can also pin that suppression (and the
// mandatory-reason rule) behaves.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")

// expectation is one // want entry.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads each testdata/src/<rel> as a package whose import path is
// <rel>, applies the analyzer to them as one program (with
// //lint:allow suppression), and reports any mismatch between
// diagnostics and // want comments as test errors. A package may
// import the ones listed before it.
//
//lint:allow deadexports a test harness: the analyzers' tests are its only callers
func Run(t *testing.T, a *analysis.Analyzer, rels ...string) {
	t.Helper()
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	var wants []*expectation
	for _, rel := range rels {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
		pkg, err := analysis.LoadDir(root, dir, rel, pkgs...)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
		w, err := collectWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, w...)
	}

	findings, err := analysis.Findings(pkgs, a)
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmatched expectation on the finding's line
// whose regexp matches the message.
func claim(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every // want comment in the package.
func collectWants(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := parsePatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s: %w", pos, err)
				}
				for _, re := range res {
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

// parsePatterns splits a want payload into its quoted regexps.
func parsePatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '`' && quote != '"' {
			return nil, fmt.Errorf("want pattern must be quoted with ` or \": %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern: %q", s)
		}
		re, err := regexp.Compile(s[1 : 1+end])
		if err != nil {
			return nil, err
		}
		out = append(out, re)
		s = strings.TrimSpace(s[2+end:])
	}
	return out, nil
}
