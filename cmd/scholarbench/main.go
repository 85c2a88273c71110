// Command scholarbench regenerates every figure of the paper's evaluation
// (Figs. 3–7) against the simulated censored internet.
//
// Usage:
//
//	scholarbench [-fig NAME|all] [-seed N] [-seeds N] [-parallel N] [-full]
//	             [-flow-clients LIST] [-bench-out FILE]
//	             [-cpuprofile FILE] [-memprofile FILE]
//	scholarbench -trace <method>
//
// Figure names are experiments.FigureOrder; -h lists them.
// Figures are decomposed into independent (cell × seed) worlds and run
// over a bounded worker pool: -parallel N caps concurrent worlds (default
// GOMAXPROCS), and -seeds N replicates every cell on seeds seed..seed+N-1,
// rendering mean ± 95% CI tables. Output is byte-identical for any
// -parallel value. -full runs the paper-scale workload (a simulated day
// per series); the default quick mode samples each series lightly.
// -bench-out writes a machine-readable performance record (wall time,
// worlds/sec, per-figure timings). -trace renders a per-hop flow trace of
// one first-time page load through the named method (one of the study's
// methods or "direct-us") instead of the figures. -cpuprofile and
// -memprofile write runtime/pprof CPU and allocation profiles of the
// whole run (figures or trace) when it exits, for `go tool pprof`.
//
// The "scale" figure runs flow-level client cohorts (fluid load plus a
// few sampled packet-level clients; quick sweeps 500/5k, -full sweeps
// 1k/10k/100k/1M). -flow-clients overrides the cohort-size axis with a
// comma-separated list, e.g. -fig scale -flow-clients 1000,100000.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"scholarcloud/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(experiments.FigureOrder, ",")+",all")
	seed := flag.Uint64("seed", 2017, "simulation seed")
	seeds := flag.Int("seeds", 1, "replicate every figure cell on this many consecutive seeds (mean ± 95% CI tables when > 1)")
	parallel := flag.Int("parallel", 0, "max concurrent simulated worlds (0 = GOMAXPROCS)")
	full := flag.Bool("full", false, "paper-scale sample counts (slower)")
	benchOut := flag.String("bench-out", "", "write a machine-readable benchmark report (JSON) to this file")
	flowClients := flag.String("flow-clients", "", "override the scale figure's cohort-size axis (comma-separated client counts)")
	trace := flag.String("trace", "", "render a per-hop flow trace of one page load through the named method")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file at exit")
	flag.Parse()
	startProfiles(*cpuProfile, *memProfile)

	if *trace != "" {
		runTrace(*trace, *seed)
		exit(0)
	}

	q := experiments.Quick()
	if *full {
		q = experiments.Full()
	}
	if *flowClients != "" {
		sweep, err := parseFlowClients(*flowClients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scholarbench: %v\n", err)
			exit(2)
		}
		q.FlowSweep = sweep
	}
	res, err := experiments.RunSweep(experiments.SweepOptions{
		Seed:    *seed,
		Seeds:   *seeds,
		Workers: *parallel,
		Quality: q,
		Figures: []string{*fig},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scholarbench: %v\n", err)
		if errors.Is(err, experiments.ErrUnknownFigure) {
			exit(2)
		}
		exit(1)
	}
	fmt.Print(res.Output)

	if *benchOut != "" {
		bench := res.Bench
		bench.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		bench.Full = *full
		buf, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "scholarbench: encode bench report: %v\n", err)
			exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*benchOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scholarbench: %v\n", err)
			exit(1)
		}
	}
	exit(0)
}

// stopProfiles finishes the profiles startProfiles began; exit runs it.
var stopProfiles = func() {}

// startProfiles begins a CPU profile into cpuPath and arranges for the
// allocation profile (every sampled allocation since the start, plus the
// live heap) to be written to memPath when the program exits. Empty paths
// skip the profile.
func startProfiles(cpuPath, memPath string) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scholarbench: %v\n", err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		stopCPU := stopProfiles
		stopProfiles = func() {
			stopCPU()
			f, err := os.Create(memPath)
			if err == nil {
				err = pprof.Lookup("allocs").WriteTo(f, 0)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "scholarbench: memprofile: %v\n", err)
			}
		}
	}
}

// exit writes any requested profiles, then exits with code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// parseFlowClients parses the -flow-clients list into the scale figure's
// cohort-size axis.
func parseFlowClients(s string) ([]int, error) {
	var sweep []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -flow-clients entry %q (want positive client counts, e.g. 1000,100000)", part)
		}
		sweep = append(sweep, n)
	}
	return sweep, nil
}

// runTrace performs one first-time page load through the named method
// with a flow tracer on every layer and prints the per-hop trace. It
// uses the paper's default world (one remote), so the ScholarCloud trace
// matches Fig. 4's session structure exactly.
func runTrace(method string, seed uint64) {
	w := experiments.NewWorld(experiments.Config{Seed: seed})
	defer w.Close()
	f, ok := w.FactoryByName(method)
	if !ok {
		fmt.Fprintf(os.Stderr, "trace: unknown method %q\n", method)
		exit(2)
	}
	tr, st, err := w.TracePageLoad(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace %s: %v\n", method, err)
		exit(1)
	}
	fmt.Print(tr.Render(fmt.Sprintf("%s first-time page load of %s", method, f.URL)))
	fmt.Printf("  -- plt=%v resources=%d redirects=%d conns=%d bytes=%d\n",
		st.PLT, st.Resources, st.Redirects, st.NewConns, st.BytesFetched)
}
