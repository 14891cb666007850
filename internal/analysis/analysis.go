// Package analysis is the repository's static-analysis toolkit: a
// minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis shape (Analyzer, Pass, Diagnostic)
// plus a go/types-based package loader and an analysistest-style
// harness, built entirely on the standard library so the module stays
// free of external dependencies.
//
// The analyzers in this package machine-check the cross-cutting
// contracts every agreement test in the repo rests on:
//
//   - simdeterminism: the deterministic-replay packages must be
//     wall-clock-, scheduler- and map-order-free.
//   - saltdiscipline: derived seeds and salts must flow through
//     stats.Mix64/Mix64NonZero (or an explicitly *Salt-named value).
//   - ctxflow: context.Background()/TODO() stay out of library code,
//     and hedge.Fn implementations must honor their context.
//   - snapshotaccounting: hedge.Snapshot counters are written only by
//     the designated accounting code in hedge.go/breaker.go.
//   - deadexports: every exported name of an internal package has a
//     non-test user, so test-only API does not accumulate.
//
// cmd/reissue-vet is the multichecker binary; scripts/lint.sh and the
// CI workflow run it alongside go vet. Deliberate exceptions are
// annotated in the source with
//
//	//lint:allow <analyzer> <reason>
//
// which suppresses findings of that analyzer on the same or the next
// line; a directive without a reason is itself an error. See
// DESIGN.md, "Static analysis & enforced invariants".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run is invoked once per loaded
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked representation
// through an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Program holds every package loaded in this run, this one
	// included, for analyzers that need a whole-program view. It is
	// read-only.
	Program []*Package

	diags []Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the pass in source order, calling fn
// for each node; fn returning false prunes the subtree, as in
// ast.Inspect.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// PathHasSuffix reports whether import path has the given
// slash-separated suffix on whole path segments: "a/internal/des"
// matches suffix "internal/des", but "a/myinternal/des" does not.
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// Finding is a post-suppression diagnostic with its position
// resolved, as printed by reissue-vet.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full analyzer suite in the order reissue-vet runs
// it.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		SaltDiscipline,
		CtxFlow,
		SnapshotAccounting,
		DeadExports,
	}
}

// Run loads the packages matched by patterns (resolved relative to
// the module rooted at or above dir) and applies every analyzer.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	pkgs, err := LoadPatterns(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return Findings(pkgs, analyzers...)
}

// Findings applies the analyzers to already-loaded packages, which
// form the pass's Program, and returns the findings that survive each
// package's //lint:allow directives, sorted by position. Findings
// include any malformed //lint:allow directives (suppressing requires
// stating a reason).
func Findings(pkgs []*Package, analyzers ...*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg)
		out = append(out, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Program:   pkgs,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				pos := pkg.Fset.Position(d.Pos)
				if !allows.covers(a.Name, pos) {
					out = append(out, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message})
				}
			}
		}
	}
	sortFindings(out)
	return out, nil
}
