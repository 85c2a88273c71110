package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"scholarcloud/benchmark/stats"
)

// metric describes one reported number.
type metric struct {
	name         string
	unit         string
	higherBetter bool
	// bound is the share of the parent's value by which the metric may get
	// worse before a change counts as a regression (end-to-end only).
	bound float64
}

// endToEnd lists the metrics a user of the system sees, in report order.
// BENCHMARK.json repeats names, units and bounds; TestBenchmarkJSONAgrees
// keeps the two in step.
var endToEnd = []metric{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"p50_ms", "ms", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
	{"allocs_per_op", "count", false, 0.02},
	{"alloc_kb_per_op", "KiB", false, 0.02},
	{"border_kb_per_op", "KiB", false, 0.05},
}

// plan is how much of a workload one run does.
type plan struct {
	seed uint64
	// scale multiplies every op count; 1 is the nominal run.
	scale    float64
	segments int // measured segments
	warmup   int // warm-up segments, part of set-up
	clients  int // closed-loop connections (socket) or parallel cells (sim)
}

// nominalSeconds is the run length the operation counts in socket.go and
// sim.go are sized for on the idle reference box: ten measured segments of
// workload plus reference.
const nominalSeconds = 15

func fullPlan(seed uint64, seconds int) plan {
	return plan{seed: seed, scale: float64(seconds) / nominalSeconds, segments: 10, warmup: 2, clients: 2}
}

// scaled applies the plan's scale to a nominal count.
func (p plan) scaled(n int) int {
	return max(1, int(float64(n)*p.scale+0.5))
}

// procSnap is the process-wide counters read between segments.
type procSnap struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:      cpuTime(),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
}

// segment is one measured slice of a run: a fixed number of operations,
// so two commits do identical work in it.
type segment struct {
	ops     int64
	failed  int64
	work    clocks        // spent on the workload's operations
	refWall time.Duration // spent on the reference operations between them
	refOps  int64         // reference operations done
	// What the reference allocated (the simulator's does, by design).
	refMallocs, refBytes uint64
	proc                 procSnap // deltas over the segment, reference included
	border               int64    // bytes across the border during the segment
	p50, p99             float64  // ms; p99 is 0 with p99Err set when there is no honest tail to report
	p99Err               error
}

// clocks is wall and process-CPU time spent.
type clocks struct{ wall, cpu time.Duration }

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (a procSnap) sub(b procSnap) procSnap {
	return procSnap{
		cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes,
		gcCycles: a.gcCycles - b.gcCycles, gcPause: a.gcPause - b.gcPause,
	}
}

// latencyQuantiles sorts lat in place and returns p50 and p99 in ms.
func latencyQuantiles(lat []int64) (p50, p99 float64, p99Err error) {
	slices.Sort(lat)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	if len(lat) > 0 {
		p50 = ms(lat[(len(lat)-1)/2])
	}
	v, err := stats.Percentile(lat, 0.99)
	return p50, ms(v), err
}

// result is one run of one workload.
type result struct {
	workload  string
	attempted int64
	failed    int64
	// violations are correctness-gate failures; any one fails the run.
	violations []string
	e2e        map[string]float64
	// raw is the timing metrics before adjustment by the reference, and
	// slowdown the median factor they were adjusted by (1: idle box).
	raw      map[string]float64
	slowdown float64
	layers   map[string]float64
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

// reference is the fixed work a workload's speed is measured against.
//
// The reference box is a 2-vCPU guest on a shared host, and what it can
// do in a second swings by 20-30 % for minutes at a time as neighbours
// come and go; no statistic of one 20-second run sees through that. So
// every segment alternates the workload with a reference whose cost no
// change to the program can move (bare forwarding of the same bodies for
// the socket workloads, a standard-library event loop for the simulator),
// and each timing is divided by how much slower than nominal the
// reference ran next to it. This is covariate adjustment: it removes the
// variance the machine adds and leaves differences between two commits
// intact, because both are adjusted by the same fixed rule.
type reference struct {
	// nominalNs is wall nanoseconds per reference operation on the
	// reference box when nothing else runs. It only sets the scale of the
	// reported numbers (they read as on an idle box).
	nominalNs float64
	// sensitivity is the exponent relating the two slow-downs: when the
	// reference takes x times nominal, the workload is expected to take
	// x^sensitivity times as long. Fitted once on the reference box by
	// regressing log segment throughput on log reference time (NOISE.md);
	// below 1 where more of the workload's time is plain user-mode compute
	// than of the reference's.
	sensitivity float64
}

// slowdown is how many times longer than on an idle box the workload is
// expected to have taken, given how the reference ran beside it. It is 1
// when no reference ran.
func (ref reference) slowdown(wall time.Duration, ops int64) float64 {
	if ops == 0 || wall <= 0 || ref.nominalNs == 0 {
		return 1
	}
	return math.Pow(float64(wall.Nanoseconds())/float64(ops)/ref.nominalNs, ref.sensitivity)
}

// summarise turns a run's segments into the end-to-end metrics. Each
// timing is adjusted per segment by the reference's slow-down and the
// median segment is reported; raw keeps the unadjusted medians for the
// report. The tail latency is not an end-to-end metric (on a shared host
// it is the neighbours' doing, NOISE.md section 5): it goes to layers as
// loadgen.p99_ms when every segment had the samples for one. Count
// metrics use whole-run totals, less what the reference itself allocated.
// setupBorder is the border traffic of construction and cache fill
// (warm-up operations excluded): border_kb_per_op amortises it over the
// measured operations, so a workload served entirely from cache still
// reports what crossing the border cost it.
func (r *result) summarise(ref reference, setup time.Duration, setupSlowdown float64, setupBorder int64, segs []segment) {
	var opsPerS, p50, p99, cpu, slow []float64
	var rawOps, rawP50, rawCPU []float64
	var ops, mallocs, bytes, border int64
	thinP99 := false
	for _, s := range segs {
		r.attempted += s.ops
		r.failed += s.failed
		k := ref.slowdown(s.refWall, s.refOps)
		good := float64(s.ops-s.failed) / s.work.wall.Seconds()
		c := float64(s.work.cpu.Microseconds()) / float64(s.ops)
		slow = append(slow, k)
		rawOps, rawP50, rawCPU = append(rawOps, good), append(rawP50, s.p50), append(rawCPU, c)
		opsPerS, p50, p99, cpu = append(opsPerS, good*k), append(p50, s.p50/k), append(p99, s.p99/k), append(cpu, c/k)
		thinP99 = thinP99 || s.p99Err != nil
		ops += s.ops
		mallocs += int64(s.proc.mallocs - s.refMallocs)
		bytes += int64(s.proc.bytes - s.refBytes)
		border += s.border
	}
	n := float64(ops)
	r.e2e = map[string]float64{
		"setup_s":          setup.Seconds() / setupSlowdown,
		"ops_per_s":        stats.Median(opsPerS),
		"p50_ms":           stats.Median(p50),
		"cpu_us_per_op":    stats.Median(cpu),
		"allocs_per_op":    float64(mallocs) / n,
		"alloc_kb_per_op":  float64(bytes) / 1024 / n,
		"border_kb_per_op": float64(setupBorder+border) / 1024 / n,
	}
	r.raw = map[string]float64{
		"setup_s": setup.Seconds(), "ops_per_s": stats.Median(rawOps), "p50_ms": stats.Median(rawP50),
		"cpu_us_per_op": stats.Median(rawCPU),
	}
	if !thinP99 && r.layers != nil {
		r.layers["loadgen.p99_ms"] = stats.Median(p99)
	}
	r.slowdown = stats.Median(slow)
}
