package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between adjacent order statistics; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// ratio is a/b, 0 when b is 0 — a layer a workload bypasses reports
// zero work rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtime/metrics names read around every measured window.
const (
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mIdleCPU  = "/cpu/classes/idle:cpu-seconds"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mSchedLat = "/sched/latencies:seconds"
)

// probe is a snapshot of the process counters a window is measured
// against: wall clock, CPU time, allocator totals and the runtime's
// own GC and scheduler metrics.
type probe struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	rt      []metrics.Sample
}

func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rt := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU}, {Name: mGCCycles}, {Name: mSchedLat}}
	metrics.Read(rt)
	return probe{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, rt: rt}
}

// usage is what a window consumed between two probes.
type usage struct {
	wall           time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
	gcCPUShare     float64 // GC CPU over all non-idle CPU
	gcCycles       uint64
	schedLatP99us  float64 // goroutine runnable-to-running latency
}

func since(p0 probe) usage {
	p1 := takeProbe()
	f := func(p probe, i int) float64 { return p.rt[i].Value.Float64() }
	used := (f(p1, 1) - f(p0, 1)) - (f(p1, 2) - f(p0, 2))
	return usage{
		wall:          p1.at.Sub(p0.at),
		cpu:           p1.cpu - p0.cpu,
		mallocs:       p1.mallocs - p0.mallocs,
		bytes:         p1.bytes - p0.bytes,
		gcCPUShare:    ratio(f(p1, 0)-f(p0, 0), used),
		gcCycles:      p1.rt[3].Value.Uint64() - p0.rt[3].Value.Uint64(),
		schedLatP99us: histQuantile(p0.rt[4].Value.Float64Histogram(), p1.rt[4].Value.Float64Histogram(), 0.99) * 1e6,
	}
}

// histQuantile is the q-quantile of the difference of two snapshots
// of one runtime/metrics histogram, read at the upper bucket edge.
func histQuantile(h0, h1 *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range h1.Counts {
		total += h1.Counts[i] - h0.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range h1.Counts {
		seen += h1.Counts[i] - h0.Counts[i]
		if seen >= target {
			hi := h1.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h1.Buckets[i]
			}
			return hi
		}
	}
	return h1.Buckets[len(h1.Buckets)-1]
}
