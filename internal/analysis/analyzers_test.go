package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each testdata package demonstrates at least one violation the stock
// go vet toolchain does not catch, plus the matching negative cases.

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.SimDeterminism, "detsim/internal/des")
}

// The shared scheduling core joined the deterministic-replay scope
// when the live replicas started deferring to it: a wall-clock read
// or goroutine inside internal/sched would desynchronize the two
// worlds' batch membership.
func TestSimDeterminismSched(t *testing.T) {
	analysistest.Run(t, analysis.SimDeterminism, "detsim/internal/sched")
}

// The fault package is graph-scoped: only Decide's call graph is
// checked, so the live injector's wall-clock use passes.
func TestSimDeterminismFaultGraph(t *testing.T) {
	analysistest.Run(t, analysis.SimDeterminism, "detsim/reissue/hedge/fault")
}

func TestSaltDiscipline(t *testing.T) {
	analysistest.Run(t, analysis.SaltDiscipline, "salt")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflow")
}

func TestCtxFlowMainExempt(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflowmain")
}

func TestSnapshotAccounting(t *testing.T) {
	analysistest.Run(t, analysis.SnapshotAccounting, "acct/reissue/hedge")
}

// acctuser imports the real repro/reissue/hedge: the cross-package
// write is resolved through compiled export data.
func TestSnapshotAccountingCrossPackage(t *testing.T) {
	analysistest.Run(t, analysis.SnapshotAccounting, "acctuser")
}

// deadexports needs the whole program: lib's exports are cleared by
// user's references, and user comes second so it can import lib.
func TestDeadExports(t *testing.T) {
	analysistest.Run(t, analysis.DeadExports, "deadexports/internal/lib", "deadexports/user")
}
