package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestLintDirectiveRequiresReason pins the suppression grammar
// directly: a reasonless //lint:allow is reported as a lintdirective
// finding AND fails to suppress, while the well-formed twin below it
// suppresses its line.
func TestLintDirectiveRequiresReason(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadDir(root, filepath.Join("testdata", "src", "lintdirective"), "lintdirective")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Findings([]*analysis.Package{pkg}, analysis.SaltDiscipline)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (malformed directive + unsuppressed derivation):\n%v", len(findings), findings)
	}
	if findings[0].Analyzer != "lintdirective" || !strings.Contains(findings[0].Message, "state its reason") {
		t.Errorf("first finding = %v, want a lintdirective reason-required error", findings[0])
	}
	if findings[1].Analyzer != "saltdiscipline" {
		t.Errorf("second finding = %v, want the saltdiscipline finding the malformed directive failed to suppress", findings[1])
	}
	if findings[1].Pos.Line != findings[0].Pos.Line+1 {
		t.Errorf("unsuppressed finding on line %d, want the line right below the malformed directive (%d)", findings[1].Pos.Line, findings[0].Pos.Line+1)
	}
}
