package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// goldenPath is the figure-golden file the test suite checks; the
// benchmark reads it and never writes it.
const goldenPath = "internal/experiments/testdata/figure_goldens.txt"

const simWorkers = 2

// goldenScale is the scale the goldens were recorded at.
func goldenScale() experiments.Scale {
	return experiments.Scale{Queries: 2000, AdaptiveTrials: 3, Seed: 0x0511, Workers: simWorkers}
}

// hashTable digests a table at full float64 precision, exactly as
// the golden test does, so a pass matches the goldens only if every
// simulated measurement is bit-identical.
func hashTable(t *experiments.Table) string {
	h := sha256.New()
	fmt.Fprintln(h, t.ID)
	fmt.Fprintln(h, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		for i, v := range row {
			if i > 0 {
				h.Write([]byte{','})
			}
			h.Write([]byte(strconv.FormatFloat(v, 'g', -1, 64)))
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func readGoldens() (map[string]string, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		// IDs may contain spaces; the digest is the last field.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", goldenPath, line)
		}
		out[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no goldens", goldenPath)
	}
	return out, nil
}

// jobMetricName turns a job name such as "figure6/Exp(0.1)" into a
// metric-name component.
func jobMetricName(job string) string {
	b := []byte(job)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '-') {
			b[i] = '_'
		}
	}
	return strings.Trim(string(b), "_")
}

// simFigures regenerates the figure set through the sweep pool, pass
// after pass, closed loop: a point starts as soon as a worker frees.
// Every pass runs at the golden scale and must reproduce the goldens
// bit for bit; the benchmark seed shuffles the order the jobs are
// handed to the pool, afresh each pass, which the tables must not
// depend on. Varying the simulation seed instead would change the
// work itself (allocs per point moved 9% between seeds) and leave the
// passes without a reference to check.
type simFigures struct {
	rng     *stats.RNG
	goldens map[string]string
}

// passResult is one sweep pass over every figure job.
type passResult struct {
	latMS  []float64 // per point
	wrong  bool      // some table differs from the goldens
	points int
}

// pass runs every SweepJobs point once through experiments.RunJobs,
// timing each point, and checks the tables against the goldens.
// Traced, each point is a sweep.Point span under a sweep.pass span.
func (w *simFigures) pass(shuffle bool, tr *tracer) (passResult, error) {
	sc := goldenScale()
	jobs := experiments.SweepJobs(sc)
	if shuffle {
		w.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	}
	var n int
	for _, j := range jobs {
		n += len(j.Points)
	}
	lat := make([]float64, n)
	root := tr.begin(span{Name: "sweep.pass", Parent: -1, Query: -1, Shard: -1, Attempt: -1,
		Replica: -1, Worker: -1, Start: time.Now()})
	idx := 0
	for _, j := range jobs {
		for p := range j.Points {
			run, slot := j.Points[p].Run, idx
			j.Points[p].Run = func(env *sweep.Env) error {
				t0 := time.Now()
				si := tr.begin(span{Name: "sweep.Point", Parent: root, Query: slot, Shard: -1,
					Attempt: -1, Replica: -1, Worker: env.Worker, Start: t0})
				err := run(env)
				tr.finish(si, err == nil)
				lat[slot] = msSince(t0)
				return err
			}
			idx++
		}
	}
	out, err := experiments.RunJobs(sc, jobs...)
	tr.finish(root, err == nil)
	if err != nil {
		return passResult{points: n}, err
	}
	hashes := make(map[string]string)
	for _, ts := range out {
		for _, t := range ts {
			hashes[t.ID] = hashTable(t)
		}
	}
	return passResult{latMS: lat, points: n, wrong: !sameHashes(hashes, w.goldens)}, nil
}

func sameHashes(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// setup checks the goldens with one untimed pass. The pass also fills
// the experiments package's lazy workload caches, which would
// otherwise make the first timed pass ~5 s slower.
func (w *simFigures) setup() error {
	var err error
	if w.goldens, err = readGoldens(); err != nil {
		return err
	}
	pr, err := w.pass(false, nil)
	if err != nil {
		return err
	}
	if pr.wrong {
		return fmt.Errorf("figure tables differ from %s", goldenPath)
	}
	return nil
}

func (w *simFigures) measure(d time.Duration, tr *tracer) (window, error) {
	base := 0
	if tr != nil {
		base = tr.len()
	}
	var win window
	p0 := takeProbe()
	var pointMS []float64
	for passes := 0; passes == 0 || time.Since(p0.at) < d; passes++ {
		t0 := time.Now()
		pr, err := w.pass(true, tr)
		if err != nil {
			return win, err
		}
		win.attempted += pr.points
		if pr.wrong {
			win.failed += pr.points
			win.wrong += pr.points
			continue
		}
		win.latMS = append(win.latMS, msSince(t0))
		pointMS = append(pointMS, pr.latMS...)
	}
	win.use = since(p0)
	win.layers = make(map[string]float64)
	if tr != nil {
		pointMS = sortedCopy(pointMS)
		win.layers["sweep.point_ms_p50"] = quantile(pointMS, 0.5)
		win.layers["sweep.point_ms_p90"] = quantile(pointMS, 0.9)
		simLayers(tr.snapshot(base), base, win.layers)
		if err := perJob(win.layers); err != nil {
			return win, err
		}
	}
	return win, nil
}

// simLayers reads sweep pool utilization and tail idling off the
// traced passes' spans.
func simLayers(spans []span, base int, out map[string]float64) {
	kids := children(spans, base)
	var util, tail []float64
	for i, s := range spans {
		if s.Name != "sweep.pass" {
			continue
		}
		var busy time.Duration
		lastEnd := make(map[int]time.Time)
		for _, k := range kids[i] {
			p := spans[k]
			busy += p.dur()
			if p.End.After(lastEnd[p.Worker]) {
				lastEnd[p.Worker] = p.End
			}
		}
		earliest := s.End
		for _, e := range lastEnd {
			if e.Before(earliest) {
				earliest = e
			}
		}
		util = append(util, ratio(float64(busy), float64(simWorkers)*float64(s.dur())))
		tail = append(tail, ms(s.End.Sub(earliest)))
	}
	out["sweep.utilization"] = median(util)
	out["sweep.tail_idle_ms"] = median(tail)
}

// perJob runs one sequential pass outside the timed window and
// reports each job's mean time and allocations per point.
func perJob(out map[string]float64) error {
	sc := goldenScale()
	sc.Workers = 1
	jobs := experiments.SweepJobs(sc)
	type acc struct {
		ms     float64
		allocs uint64
		n      int
	}
	accs := make([]acc, len(jobs))
	for ji, j := range jobs {
		for p := range j.Points {
			run, a := j.Points[p].Run, &accs[ji]
			j.Points[p].Run = func(env *sweep.Env) error {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				err := run(env)
				a.ms += msSince(t0)
				runtime.ReadMemStats(&m1)
				a.allocs += m1.Mallocs - m0.Mallocs
				a.n++
				return err
			}
		}
	}
	if _, err := experiments.RunJobs(sc, jobs...); err != nil {
		return err
	}
	for ji, j := range jobs {
		name := "experiments." + jobMetricName(j.Name)
		out[name+".ms_per_point"] = ratio(accs[ji].ms, float64(accs[ji].n))
		out[name+".allocs_per_point"] = ratio(float64(accs[ji].allocs), float64(accs[ji].n))
	}
	return nil
}

func (w *simFigures) meta() map[string]any {
	sc := goldenScale()
	return map[string]any{"scale_seed": sc.Seed, "queries": sc.Queries,
		"adaptive_trials": sc.AdaptiveTrials, "workers": simWorkers}
}

func (w *simFigures) close() {}

// jobMetrics lists the per-job metrics, jobs sorted by name.
func jobMetrics() []struct{ name, unit string } {
	var names []string
	for _, j := range experiments.SweepJobs(goldenScale()) {
		names = append(names, "experiments."+jobMetricName(j.Name))
	}
	sort.Strings(names)
	var out []struct{ name, unit string }
	for _, n := range names {
		out = append(out, struct{ name, unit string }{n + ".ms_per_point", "ms"},
			struct{ name, unit string }{n + ".allocs_per_point", "count"})
	}
	return out
}
