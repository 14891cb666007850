package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Every tracked benchmark must execute cleanly at a micro scale.
func TestBenchmarksRun(t *testing.T) {
	// 800 queries is the smallest scale every harness accepts (the
	// online-tracking extension needs a quantile window ≥ 100).
	sc := experiments.Scale{Queries: 800, AdaptiveTrials: 2, Seed: 0x0511}
	for _, b := range benchmarks(sc, 2) {
		b := b
		t.Run(strings.ReplaceAll(b.name, "/", "_"), func(t *testing.T) {
			if err := b.fn(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

var measureSink []byte

func TestMeasureReportsWork(t *testing.T) {
	res, err := measure("probe", 2, func() error {
		measureSink = make([]byte, 1<<16)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 2 || res.NsPerOp <= 0 {
		t.Fatalf("bad measurement: %+v", res)
	}
	if res.AllocsPerOp < 1 || res.BytesPerOp < 1<<15 {
		t.Fatalf("allocation not observed: %+v", res)
	}
}

func benchFileWith(results ...benchResult) benchFile {
	return benchFile{Schema: 2, Queries: 1000, AdaptiveTrials: 2, Short: true, Benchmarks: results}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := benchFileWith(benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 1000})
	cur := benchFileWith(benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 1300})
	if fails := compare(base, cur, 0.20, false); len(fails) != 1 {
		t.Fatalf("alloc regression not flagged: %v", fails)
	}
	ok := benchFileWith(benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 1100})
	if fails := compare(base, ok, 0.20, false); len(fails) != 0 {
		t.Fatalf("within-threshold run flagged: %v", fails)
	}
}

func TestCompareTimeGateOptIn(t *testing.T) {
	base := benchFileWith(benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 10})
	slow := benchFileWith(benchResult{Name: "x", NsPerOp: 200, AllocsPerOp: 10})
	if fails := compare(base, slow, 0.20, false); len(fails) != 0 {
		t.Fatalf("time regression flagged without time gate: %v", fails)
	}
	if fails := compare(base, slow, 0.20, true); len(fails) != 1 {
		t.Fatalf("time regression not flagged with time gate: %v", fails)
	}
}

func TestCompareGoVersionMismatch(t *testing.T) {
	base := benchFileWith(benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 10})
	base.GoVersion = "go1.24.0"
	cur := benchFileWith(benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 10})
	cur.GoVersion = "go1.24.3" // patch release: comparable
	if fails := compare(base, cur, 0.20, false); len(fails) != 0 {
		t.Fatalf("patch-release comparison refused: %v", fails)
	}
	cur.GoVersion = "go1.25.0" // minor release: not comparable
	if fails := compare(base, cur, 0.20, false); len(fails) != 1 || !strings.Contains(fails[0], "go version") {
		t.Fatalf("minor-release mismatch not refused: %v", fails)
	}
}

func TestCompareCoverageDropAndScaleMismatch(t *testing.T) {
	base := benchFileWith(
		benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 10},
		benchResult{Name: "y", NsPerOp: 100, AllocsPerOp: 10},
	)
	cur := benchFileWith(benchResult{Name: "x", NsPerOp: 100, AllocsPerOp: 10})
	if fails := compare(base, cur, 0.20, false); len(fails) != 1 || !strings.Contains(fails[0], "coverage") {
		t.Fatalf("dropped benchmark not flagged: %v", fails)
	}
	other := cur
	other.Queries = 2000
	if fails := compare(base, other, 0.20, false); len(fails) != 1 || !strings.Contains(fails[0], "mismatch") {
		t.Fatalf("scale mismatch not flagged: %v", fails)
	}
	pool := cur
	pool.SweepWorkers = 8
	if fails := compare(base, pool, 0.20, false); len(fails) != 1 || !strings.Contains(fails[0], "mismatch") {
		t.Fatalf("sweep-workers mismatch not flagged: %v", fails)
	}
}

func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := optimizerBench()(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: profile missing or empty (%v)", p, err)
		}
	}

	// Neither flag set: nothing to start, nothing to write.
	stop, err = startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := startProfiles(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Fatal("unwritable CPU profile path accepted")
	}
}
