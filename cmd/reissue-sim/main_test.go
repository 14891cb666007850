package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestRunQueueingWorkload(t *testing.T) {
	if err := run("queueing", 0.3, 2000, 1, 0, 0, "random", "fifo", 0, 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPolicyAndLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "out.csv")
	if err := run("independent", 0.3, 2000, 1, 5, 0.5, "random", "fifo", 0, 0, logPath); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2000 {
		t.Fatalf("log has %d records", log.Len())
	}
	if len(log.ReissueTimes()) == 0 {
		t.Fatal("policy never reissued")
	}
}

func TestRunVariants(t *testing.T) {
	for _, wl := range []string{"independent", "correlated"} {
		if err := run(wl, 0.3, 500, 1, 0, 0, "random", "fifo", 0, 0, ""); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
	}
	if err := run("queueing", 0.2, 500, 1, 1, 1, "min2", "prio-fifo", 0, 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("bogus", 0.3, 100, 1, 0, 0, "random", "fifo", 0, 0, ""); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run("queueing", 0.3, 100, 1, 0, 0, "bogus", "fifo", 0, 0, ""); err == nil {
		t.Error("unknown LB accepted")
	}
	if err := run("queueing", 0.3, 100, 1, 0, 0, "random", "bogus", 0, 0, ""); err == nil {
		t.Error("unknown discipline accepted")
	} else if want := `unknown discipline "bogus"`; !strings.Contains(err.Error(), want) {
		t.Errorf("unknown-discipline error = %q, want it to contain %q", err, want)
	}
	if err := run("queueing", 0.3, 100, 1, -1, 0.5, "random", "fifo", 0, 0, ""); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestRunBatchDiscipline(t *testing.T) {
	if err := run("queueing", 0.3, 500, 1, 5, 0.5, "random", "batch", 4, 2, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBatchValidation(t *testing.T) {
	if err := run("queueing", 0.3, 100, 1, 0, 0, "random", "batch", 0, 0, ""); err == nil {
		t.Error("-discipline batch without -batch-size accepted")
	}
	if err := run("queueing", 0.3, 100, 1, 0, 0, "random", "batch", -3, 0, ""); err == nil {
		t.Error("negative batch size accepted")
	}
	if err := run("queueing", 0.3, 100, 1, 0, 0, "random", "fifo", 4, 0, ""); err == nil {
		t.Error("-batch-size without -discipline batch accepted")
	}
}
