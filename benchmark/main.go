// Command benchmark is the repository's performance benchmark. It drives
// the two systems the repo contains — the real-socket split proxy
// (StartRemote/StartDomestic over loopback) and the deterministic
// simulator (NewSimulation + Measure*) — through their public functions,
// from one process, and reports a fixed set of end-to-end metrics plus,
// in a traced run, what each layer contributes. README.md defines every
// metric and workload.
//
//	benchmark -seed N                      all five workloads (one process each), end-to-end metrics
//	benchmark -seed N -trace out.json      traced runs: per-layer metrics, spans to out.<workload>.json
//	benchmark -seed N -aa                  everything twice; fails if a pair differs by more than its bound
//	benchmark -workload W -seed N -seconds S -trace 0|1|file
//	                                       one workload in this process; last stdout line is the result as JSON
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"

	"scholarcloud/benchmark/layers"
	"scholarcloud/benchmark/spans"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in this process, and end with a JSON result line (default: all five, one process each)")
		seed     = flag.Uint64("seed", 1, "seed for key order, payload bytes and simulator worlds")
		seconds  = flag.Int("seconds", nominalSeconds, "run length the fixed operation counts are scaled to")
		trace    = flag.String("trace", "0", "0: untraced; 1 or a file name: traced run, spans written there (1: .bench_build/trace.json)")
		aa       = flag.Bool("aa", false, "run everything twice and compare the two runs against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 {
		fatal(2, errors.New("-seconds must be at least 1"))
	}
	names := workloadNames()
	if *workload != "" {
		if !slices.Contains(names, *workload) {
			fatal(2, fmt.Errorf("unknown workload %q (known: %s)", *workload, strings.Join(names, ", ")))
		}
		names = []string{*workload}
	}
	switch {
	case *aa && *trace != "0":
		fatal(2, errors.New("-aa compares untraced runs; drop -trace"))
	case *aa:
		os.Exit(runAA(names, *seed, *seconds))
	case *workload == "":
		os.Exit(runSuite(names, *seed, *seconds, *trace))
	}

	env, err := guardEnvironment()
	if err != nil {
		fatal(2, err)
	}
	p := fullPlan(*seed, *seconds)
	printHeader(os.Stdout, env, p)
	if *trace != "0" {
		os.Exit(runTraced(*workload, p, env, *trace))
	}
	os.Exit(runUntraced(*workload, p))
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, s := range socketWorkloads {
		names = append(names, s.name)
	}
	return append(names, "sim_sweep")
}

// runWorkload runs one workload by name, traced when rec is non-nil.
func runWorkload(name string, p plan, rec *spans.Recorder) (*result, error) {
	if name == "sim_sweep" {
		if rec != nil {
			return traceSim(simCatalogue, p, rec)
		}
		// A pass takes 2.5 s where a socket segment takes 1.5: eight
		// segments and one warm-up pass keep sim_sweep as long as the other
		// workloads.
		p.segments, p.warmup = 8, 1
		return runSim(simCatalogue, p)
	}
	for i := range socketWorkloads {
		if socketWorkloads[i].name == name {
			if rec != nil {
				return traceSocket(&socketWorkloads[i], p, rec)
			}
			return runSocket(&socketWorkloads[i], p)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(name string, p plan) int {
	r, err := runWorkload(name, p, nil)
	if err != nil {
		fatal(1, err)
	}
	printResult(os.Stdout, r, endToEnd, r.e2e)
	printRaw(os.Stdout, r)
	printLayers(os.Stdout, r.layers)
	printJSON(os.Stdout, r, endToEnd, r.e2e)
	if !r.correct() {
		return 1
	}
	return 0
}

// runTraced measures one workload's per-layer metrics and writes the
// spans.
func runTraced(name string, p plan, env environment, out string) int {
	if out == "1" {
		out = filepath.Join(".bench_build", "trace.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fatal(1, err)
	}
	rec := spans.NewRecorder()
	driverMetrics, err := layers.Run(1, rec)
	if err != nil {
		fatal(1, err)
	}
	r, err := runWorkload(name, p, rec)
	if err != nil {
		fatal(1, err)
	}
	for k, v := range driverMetrics {
		r.layers[k] = v
	}
	table := perLayer()
	printResult(os.Stdout, r, table, r.layers)
	header := map[string]any{"environment": env, "seed": p.seed, "workload": name}
	if err := rec.WriteFile(out, header); err != nil {
		fatal(1, err)
	}
	fmt.Printf("# %d spans written to %s\n", len(rec.Spans()), out)
	printJSON(os.Stdout, r, table, r.layers)
	if !r.correct() {
		return 1
	}
	return 0
}

// childResult is the result line of a workload run in its own process.
type childResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a process of its own, as the driver does:
// what an earlier workload leaves behind in a process (a grown heap, a
// cache that is still reachable) changes the garbage collector's pacing
// enough to move the next one's timings by tens of per cent. The child's
// report goes to w; its result line is returned.
func runChild(w io.Writer, name string, seed uint64, seconds int, trace string) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	if json.Unmarshal([]byte(last), &res) == nil && res.Metrics != nil {
		lines = lines[:len(lines)-1]
	}
	fmt.Fprintln(w, strings.Join(lines, "\n"))
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	if res.Metrics == nil {
		return res, fmt.Errorf("%s: no result line", name)
	}
	return res, nil
}

// runSuite runs every named workload, one process each.
func runSuite(names []string, seed uint64, seconds int, trace string) int {
	code := 0
	if trace == "1" {
		trace = filepath.Join(".bench_build", "trace.json")
	}
	for _, name := range names {
		out := trace
		if trace != "0" {
			// One span file per workload: out.json -> out.<workload>.json.
			ext := filepath.Ext(trace)
			out = strings.TrimSuffix(trace, ext) + "." + name + ext
		}
		if _, err := runChild(os.Stdout, name, seed, seconds, out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	return code
}

// runAA runs the named workloads twice with the same seed, one process
// per run, and compares the two runs pair by pair against the bounds.
func runAA(names []string, seed uint64, seconds int) int {
	var runs [2]map[string]childResult
	for i := range runs {
		runs[i] = make(map[string]childResult)
		for _, name := range names {
			res, err := runChild(io.Discard, name, seed, seconds, "0")
			if err != nil {
				fatal(1, err)
			}
			runs[i][name] = res
			fmt.Printf("# run %d: %s done\n", i+1, name)
		}
	}
	code := 0
	fmt.Printf("%-13s %-17s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		a, b := runs[0][name], runs[1][name]
		for _, m := range endToEnd {
			x, y := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff := 0.0
			if x != 0 {
				diff = (y - x) / x
			}
			verdict := ""
			if diff > m.bound || -diff > m.bound {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Printf("%-13s %-17s %14.4f %14.4f %+7.2f%% %6.0f%%%s\n", name, m.name, x, y, diff*100, m.bound*100, verdict)
		}
		// The simulator is deterministic: the same seed must simulate the
		// same visits and move the same bytes across its borders.
		if name == "sim_sweep" && (a.Attempted != b.Attempted || a.Metrics["border_kb_per_op"] != b.Metrics["border_kb_per_op"]) {
			fmt.Printf("%-13s visits and border_kb_per_op must repeat exactly  EXCEEDS\n", name)
			code = 1
		}
	}
	if code == 0 {
		fmt.Println("# A/A: every pair within its bound")
	}
	return code
}

// environment is the run's recorded conditions.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	NoFile     uint64 `json:"rlimit_nofile"`
}

// wantFiles is the descriptor budget: a gateway_miss run holds a few
// hundred sockets at once; this leaves an order of magnitude to spare.
const wantFiles = 4096

// guardEnvironment pins the runtime settings the numbers depend on and
// refuses to start where they cannot be had.
func guardEnvironment() (environment, error) {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return environment{}, fmt.Errorf("getrlimit: %w", err)
	}
	if lim.Cur < wantFiles {
		lim.Cur = min(lim.Max, wantFiles)
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil || lim.Cur < wantFiles {
			return environment{}, fmt.Errorf("RLIMIT_NOFILE is %d and cannot be raised to %d (hard limit %d): %v", lim.Cur, wantFiles, lim.Max, err)
		}
	}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GOGC: 100,
		GoVersion: runtime.Version(), Commit: "unknown", NoFile: lim.Cur,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		env.Commit += dirty
	}
	return env, nil
}

func printHeader(w io.Writer, env environment, p plan) {
	fmt.Fprintf(w, "# scholarcloud benchmark: nproc=%d GOMAXPROCS=%d GOGC=%d %s commit=%s nofile=%d\n",
		env.NProc, env.GOMAXPROCS, env.GOGC, env.GoVersion, env.Commit, env.NoFile)
	fmt.Fprintf(w, "# seed=%d segments=%d warmup=%d clients=%d scale=%.3g; ops per segment per client:", p.seed, p.segments, p.warmup, p.clients, p.scale)
	for _, s := range socketWorkloads {
		fmt.Fprintf(w, " %s=%d", s.name, p.scaled(s.segOps))
	}
	visits := 0
	for _, c := range simCatalogue {
		visits += max(2, p.scaled(c.clients)) * simRounds
	}
	fmt.Fprintf(w, " sim_sweep=%d visits per pass\n", visits)
}

func printResult(w io.Writer, r *result, table []metric, values map[string]float64) {
	fmt.Fprintf(w, "== %s: attempted=%d failed=%d correct=%v\n", r.workload, r.attempted, r.failed, r.correct())
	for _, v := range r.violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
	for _, m := range table {
		line := fmt.Sprintf("   %-30s %14.4f %s", m.name, values[m.name], m.unit)
		if m.bound > 0 {
			sign := "+"
			if m.higherBetter {
				sign = "-"
			}
			line += fmt.Sprintf("   (bound %s%.0f%%)", sign, m.bound*100)
		}
		fmt.Fprintln(w, line)
	}
}

// printRaw prints the timings as measured, before the reference's
// slow-down was divided out.
func printRaw(w io.Writer, r *result) {
	fmt.Fprintf(w, "   -- as measured, before the reference's slow-down (median x%.3f) was divided out\n", r.slowdown)
	for _, m := range endToEnd {
		if v, ok := r.raw[m.name]; ok {
			fmt.Fprintf(w, "   %-30s %14.4f %s\n", m.name, v, m.unit)
		}
	}
}

// printLayers prints the count-delta layer metrics an untraced run
// collects for free.
func printLayers(w io.Writer, values map[string]float64) {
	if len(values) == 0 {
		return
	}
	fmt.Fprintln(w, "   -- layer counts (untraced run)")
	for _, m := range perLayer() {
		if v, ok := values[m.name]; ok {
			fmt.Fprintf(w, "   %-30s %14.4f %s\n", m.name, v, m.unit)
		}
	}
}

// printJSON prints the one-line result the benchmark contract asks for.
func printJSON(w io.Writer, r *result, table []metric, values map[string]float64) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range table {
		out.Metrics[m.name] = value{values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(1, err) // a NaN or infinity: a metric divided by zero
	}
	fmt.Fprintln(w, string(line))
}
