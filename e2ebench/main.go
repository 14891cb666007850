// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload through the public APIs, checks every output, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	kv_inproc       open-loop Poisson set intersections against 12
//	                in-process replicas (one slow) behind one
//	                hedge.Client running a simulator-tuned SingleR.
//	kv_fanout_http  the same trace partitioned over 2 shards, each 4
//	                single-replica HTTP servers on loopback, fanned out
//	                by shard.Router with per-shard hedging.
//	sim_figures     closed-loop regeneration of the figure sweep
//	                (experiments.SweepJobs at the golden scale) through
//	                a 2-worker sweep pool, checked against the goldens;
//	                an operation is one point, a latency sample is one
//	                pass over the whole figure set.
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1
// the run measures half the window untraced and half traced, and
// prints per-layer metrics read from spans the benchmark records
// around its calls into each layer, plus the tracing overhead
// (traced minus untraced end-to-end metrics); the spans are written
// as JSON lines under -trace-dir.
//
// Run it from the repository root, normally through run.sh:
//
//	bash e2ebench/run.sh --workload kv_inproc --seed 1 --seconds 20 --trace 0
//
// See NOTES.md for why each workload and metric was chosen.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/stats"
	"repro/reissue/hedge/backend"
)

// setupRuns is how many set-ups setup_s is the median of; all but the
// run's own happen in child processes.
const setupRuns = 3

// processStart approximates the process start: package variables are
// initialised before main runs.
var processStart = time.Now()

// workload is one benchmark workload.
type workload interface {
	// setup does everything up to the first timed operation.
	setup() error
	// measure runs the workload for about d; tr is nil when untraced.
	measure(d time.Duration, tr *tracer) (window, error)
	meta() map[string]any
	close()
}

// window is what one measured window produced.
type window struct {
	latMS     []float64 // latency of each successful operation
	attempted int
	failed    int
	wrong     int // operations whose output was checked and wrong
	use       usage
	layers    map[string]float64 // per-layer metrics, traced windows only
}

func (w window) ok() int { return w.attempted - w.failed }

func liveWindow(r loopResult) window {
	win := window{latMS: r.latMS, attempted: r.sent, failed: r.failed, wrong: r.wrong,
		use: r.use, layers: make(map[string]float64)}
	lag := sortedCopy(r.lagMS)
	win.layers["gen.lag_ms_p50"] = quantile(lag, 0.5)
	win.layers["gen.lag_ms_p99"] = quantile(lag, 0.99)
	return win
}

func newWorkload(name string, seed uint64) (workload, error) {
	rng := stats.NewRNG(seed)
	switch name {
	case "kv_inproc":
		return &kvInproc{rng: rng}, nil
	case "kv_fanout_http":
		return &kvFanout{rng: rng}, nil
	case "sim_figures":
		return &simFigures{rng: rng}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kv_inproc, kv_fanout_http or sim_figures)", name)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the system sees.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the module each
// measures. A workload that bypasses a layer reports 0 for it.
var perLayer = append([]struct{ name, unit string }{
	{"gen.lag_ms_p50", "ms"},
	{"gen.lag_ms_p99", "ms"},
	{"hedge.copies_per_query", "count"},
	{"hedge.self_us_p50", "us"},
	{"hedge.self_us_p99", "us"},
	{"hedge.reissue_rate", "ratio"},
	{"hedge.reissue_win_ratio", "ratio"},
	{"hedge.dispatch_late_ms_p99", "ms"},
	{"hedge.cancel_lag_ms_p50", "ms"},
	{"hedge.cancel_lag_ms_p99", "ms"},
	{"backend.queue_wait_ms_p50", "ms"},
	{"backend.queue_wait_ms_p99", "ms"},
	{"backend.withdrawn_ratio", "ratio"},
	{"backend.busy_share", "ratio"},
	{"transport.rpc_ms_p50", "ms"},
	{"transport.rpc_ms_p99", "ms"},
	{"transport.wire_us_p50", "us"},
	{"transport.wire_us_p99", "us"},
	{"transport.server_cancelled_ratio", "ratio"},
	{"transport.dials_per_kquery", "count"},
	{"shard.self_us_p50", "us"},
	{"shard.straggler_ms_p50", "ms"},
	{"shard.straggler_ms_p99", "ms"},
	{"reissue.optimize_ms", "ms"},
	{"cluster.twin_run_ms", "ms"},
	{"sweep.utilization", "ratio"},
	{"sweep.tail_idle_ms", "ms"},
	{"sweep.point_ms_p50", "ms"},
	{"sweep.point_ms_p90", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.sched_latency_us_p99", "us"},
	{"trace.overhead_throughput_ops_s", "1/s"},
	{"trace.overhead_latency_p50_ms", "ms"},
	{"trace.overhead_latency_p90_ms", "ms"},
	{"trace.overhead_latency_p99_ms", "ms"},
	{"trace.overhead_cpu_us_per_op", "us"},
	{"trace.overhead_allocs_per_op", "count"},
	{"trace.overhead_bytes_per_op", "B"},
}, jobMetrics()...)

// windowMetrics are a window's end-to-end metrics other than set-up
// time and peak memory, which belong to the whole process.
func windowMetrics(w window) map[string]float64 {
	lat := sortedCopy(w.latMS)
	ops := float64(w.ok())
	return map[string]float64{
		"throughput_ops_s": ratio(ops, w.use.wall.Seconds()),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_p90_ms":   quantile(lat, 0.9),
		"latency_p99_ms":   quantile(lat, 0.99),
		"cpu_us_per_op":    ratio(float64(w.use.cpu)/1e3, ops),
		"allocs_per_op":    ratio(float64(w.use.mallocs), ops),
		"bytes_per_op":     ratio(float64(w.use.bytes), ops),
	}
}

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	setupOnly  bool
	traceDir   string
	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "kv_inproc, kv_fanout_http or sim_figures")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set up, print the set-up time, and exit")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/e2ebench", "directory traced runs write spans to")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured window to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile taken after the measured window to this file")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be positive, got %d", o.seconds)
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(processStart).Seconds()
	if o.setupOnly {
		fmt.Printf("{\"setup_s\": %v}\n", setupS)
		return nil
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	d := time.Duration(o.seconds) * time.Second
	metrics := make(map[string]metric)
	var attempted, failed, wrong int
	if o.trace == 0 {
		win, err := w.measure(d, nil)
		if err != nil {
			return err
		}
		attempted, failed, wrong = win.attempted, win.failed, win.wrong
		wm := windowMetrics(win)
		for _, m := range endToEnd {
			if v, ok := wm[m.name]; ok {
				metrics[m.name] = metric{v, m.unit}
			}
		}
	} else {
		plain, err := w.measure(d/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err := w.measure(d/2, tr)
		if err != nil {
			return err
		}
		attempted, failed, wrong = plain.attempted+traced.attempted, plain.failed+traced.failed, plain.wrong+traced.wrong
		layers := traced.layers
		ops := float64(traced.ok())
		layers["runtime.gc_cpu_share"] = traced.use.gcCPUShare
		layers["runtime.gc_cycles_per_kop"] = ratio(float64(traced.use.gcCycles), ops/1000)
		layers["runtime.sched_latency_us_p99"] = traced.use.schedLatP99us
		pm, tm := windowMetrics(plain), windowMetrics(traced)
		for name, v := range tm {
			layers["trace.overhead_"+name] = v - pm[name]
		}
		for _, m := range perLayer {
			metrics[m.name] = metric{layers[m.name], m.unit}
		}
		path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeJSONL(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "e2ebench: wrote %d spans to %s\n", tr.len(), path)
	}
	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		if err := writeHeapProfile(o.memProfile); err != nil {
			return err
		}
	}
	peak := peakRSSMB()

	setups := []float64{setupS}
	if o.trace == 0 {
		for i := 1; i < setupRuns; i++ {
			s, err := childSetup(o)
			if err != nil {
				return fmt.Errorf("set-up run %d: %w", i+1, err)
			}
			setups = append(setups, s)
		}
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["peak_rss_mb"] = metric{peak, "MB"}
	}

	sr := backend.MeasureSleepResponse()
	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go_version": runtime.Version(),
		"sleep_floor_us": float64(sr.Floor) / 1e3, "sleep_overshoot_us": float64(sr.Overshoot) / 1e3,
		"setup_samples_s": setups, "workload_config": w.meta(),
	}
	if err := printJSON(map[string]any{"meta": meta}); err != nil {
		return err
	}
	correct := wrong == 0
	if err := printJSON(map[string]any{"correct": correct, "attempted": attempted,
		"failed": failed, "metrics": metrics}); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("%d operations returned a wrong answer", wrong)
	}
	return nil
}

// childSetup runs the set-up once more in a fresh process — the
// process-wide lazy caches set-up fills cannot be emptied in place —
// and returns its set-up time.
func childSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var r struct {
		SetupS float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &r); err != nil {
		return 0, fmt.Errorf("reading child set-up time: %w", err)
	}
	return r.SetupS, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
