package experiments

// sweep.go decomposes every figure of the evaluation into independent
// (cell × seed) jobs for the runner: each cell builds its OWN world —
// network, scheduler, metrics registry — measures one datapoint, snapshots
// and tears down. That is what makes the harness parallel (worlds share no
// state) and deterministic (a cell's result depends only on its seed, so
// merging per-cell results in declaration order yields byte-identical
// output for any -parallel value).
//
// Replication: with Seeds > 1 every cell runs once per seed (base, base+1,
// ...) and numeric figures render mean ± 95% CI across seeds; structural
// figures (2, 3, 4) are seed-stable tables and render the base seed only.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"scholarcloud/internal/costmodel"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/opscost"
	"scholarcloud/internal/survey"
)

// sweepRunGuard replaces the default 120 s per-Run deadlock guard for
// harness-built worlds: with more workers than cores a heavy fleet cell
// legitimately runs long on wall clock while making steady virtual-time
// progress.
const sweepRunGuard = 10 * time.Minute

// namedValue is one numeric a cell exports for cross-seed aggregation.
type namedValue struct {
	Name  string // "" when the cell has a single obvious value
	Value float64
	Unit  string // "s", "KB", "%", "USD/day"
}

// cellResult is what one (cell, seed) job produced.
type cellResult struct {
	// Row is the cell's exact contribution to the single-seed rendering.
	Row string
	// Values feed the multi-seed mean ± CI tables.
	Values []namedValue
	// Obs is the cell's world-local metrics delta; HasObs is false only
	// for static cells (no world). Fleet-backed worlds are snapshotted
	// too: the world gate freezes virtual time between Run windows, so
	// even their recurring probe timers fire at seed-determined instants.
	Obs    obs.Snapshot
	HasObs bool
}

// cell is one independently runnable unit of a figure.
type cell struct {
	Label string
	// Worlds counts simulated worlds the cell builds (bench accounting).
	Worlds int
	// Weight orders job dispatch heaviest-first so stragglers start early;
	// it must not influence the result.
	Weight int
	Run    func(seed uint64) (cellResult, error)
}

// worldCell is the frame every measured cell shares: build one world from
// cfg on the job's seed, run measure against it (which fills Row and
// Values), then attach the world's settled metrics delta and tear down.
func worldCell(label string, weight int, cfg Config, measure func(w *World) (cellResult, error)) cell {
	return cell{
		Label:  label,
		Worlds: 1,
		Weight: weight,
		Run: func(seed uint64) (cellResult, error) {
			cfg := cfg // Run is called concurrently, once per replicate seed
			cfg.Seed, cfg.RunGuard = seed, sweepRunGuard
			w := NewWorld(cfg)
			defer w.Close()
			r, err := measure(w)
			if err != nil {
				return cellResult{}, err
			}
			snap, err := w.SnapshotSettled()
			if err != nil {
				return cellResult{}, err
			}
			r.Obs, r.HasObs = snap, true
			return r, nil
		},
	}
}

// figurePlan is a figure decomposed into cells plus what reassembles the
// figure text from completed cells (in cell order).
type figurePlan struct {
	Name  string
	Title string
	// Header is the figure's static preamble: title line, column header.
	Header string
	Cells  []cell
	// Render builds the text after Header; nil concatenates the cell rows.
	Render func(rs []cellResult) string
}

func (p figurePlan) render(rs []cellResult) string {
	if p.Render != nil {
		return p.Header + p.Render(rs)
	}
	return p.Header + concatRows(rs)
}

// FigureOrder lists every figure name in presentation order — the valid
// values of scholarbench -fig besides "all". It is read off the plan
// table, so a figure added to sweepPlans is selectable, documented in the
// usage text and gated without further lists to edit.
var FigureOrder = func() []string {
	var names []string
	for _, p := range sweepPlans(Quality{}) {
		names = append(names, p.Name)
	}
	return names
}()

// ErrUnknownFigure is wrapped by RunSweep's error when SweepOptions.Figures
// names a figure outside FigureOrder.
var ErrUnknownFigure = errors.New("unknown figure")

// Quality controls sample counts: quick for tests, full for the bench
// harness (a simulated day of accesses, as in the paper).
type Quality struct {
	FirstRuns     int // independent first-time loads per method
	Subsequent    int // subsequent loads per method
	RTTProbes     int
	PLRVisits     int
	TrafficVisits int
	ScaleRounds   int
	ScaleSweep    []int
	// FlowSweep is the scale figure's cohort-size axis (flow-level client
	// mode); FlowSampled is how many packet-level clients each cohort
	// samples.
	FlowSweep   []int
	FlowSampled int
}

// Quick is a fast configuration for tests and demos.
func Quick() Quality {
	return Quality{
		FirstRuns:     3,
		Subsequent:    8,
		RTTProbes:     10,
		PLRVisits:     20,
		TrafficVisits: 5,
		ScaleRounds:   2,
		ScaleSweep:    []int{5, 30, 60, 120},
		FlowSweep:     []int{500, 5000},
		FlowSampled:   3,
	}
}

// Full approximates the paper's day-long runs.
func Full() Quality {
	return Quality{
		FirstRuns:     5,
		Subsequent:    60,
		RTTProbes:     50,
		PLRVisits:     60,
		TrafficVisits: 20,
		ScaleRounds:   3,
		ScaleSweep:    ScalabilitySweep,
		FlowSweep:     []int{1_000, 10_000, 100_000, 1_000_000},
		FlowSampled:   3,
	}
}

// SweepOptions configures RunSweep.
type SweepOptions struct {
	// Seed is the base seed (0 selects the default 2017). Replicate i runs
	// on Seed+i.
	Seed uint64
	// Seeds is the replicate count; <= 1 runs each cell once.
	Seeds int
	// Workers bounds concurrent worlds; <= 0 selects GOMAXPROCS.
	Workers int
	Quality Quality
	// Figures selects a subset of FigureOrder; empty (or "all") means all.
	Figures []string
}

// FigureTiming is one figure's row of the benchmark report.
type FigureTiming struct {
	Fig            string  `json:"fig"`
	Cells          int     `json:"cells"`
	Seconds        float64 `json:"seconds"`
	MaxCellSeconds float64 `json:"max_cell_seconds"`
}

// BenchReport is the machine-readable performance record emitted as
// BENCH_experiments.json. Seconds are wall-clock; Seconds per figure sum
// per-cell times, so with N workers their total exceeds WallSeconds.
type BenchReport struct {
	GeneratedAt  string         `json:"generated_at,omitempty"`
	GoMaxProcs   int            `json:"gomaxprocs"`
	Workers      int            `json:"workers"`
	Seed         uint64         `json:"seed"`
	Seeds        int            `json:"seeds"`
	Full         bool           `json:"full"`
	Worlds       int            `json:"worlds"`
	WallSeconds  float64        `json:"wall_seconds"`
	WorldsPerSec float64        `json:"worlds_per_sec"`
	Figures      []FigureTiming `json:"figures"`
}

// SweepResult is a completed sweep.
type SweepResult struct {
	// Output is the figure text, sections in FigureOrder, each followed by
	// a blank line — byte-identical for a given (Seed, Seeds, Quality,
	// Figures) regardless of Workers.
	Output string
	// Obs merges the per-world metrics deltas of every world-backed cell
	// (fleet cells included), folded in cell order.
	Obs   obs.Snapshot
	Bench BenchReport
}

// RunSweep runs the selected figures as a (cell × seed) job matrix over a
// bounded worker pool and reassembles the deterministic report.
func RunSweep(opts SweepOptions) (*SweepResult, error) {
	baseSeed := opts.Seed
	if baseSeed == 0 {
		baseSeed = 2017
	}
	seeds := opts.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Select from the plan table; a name it does not hold is an error, not
	// a silently smaller sweep.
	want := map[string]bool{}
	for _, f := range opts.Figures {
		want[f] = true
	}
	all := len(want) == 0 || want["all"]
	var plans []figurePlan
	for _, p := range sweepPlans(opts.Quality) {
		if all || want[p.Name] {
			plans = append(plans, p)
		}
		delete(want, p.Name)
	}
	for _, f := range opts.Figures {
		if f != "all" && want[f] {
			return nil, fmt.Errorf("experiments: %w %q (want one of %s, or all)",
				ErrUnknownFigure, f, strings.Join(FigureOrder, ","))
		}
	}

	// results[plan][seed][cell], filled by the jobs below. Each job owns
	// exactly one slot, so workers never write the same memory.
	results := make([][][]cellResult, len(plans))
	var jobs []Job
	var weights []int // per job, parallel to jobs
	worlds := 0
	for pi, p := range plans {
		results[pi] = make([][]cellResult, seeds)
		for si := 0; si < seeds; si++ {
			results[pi][si] = make([]cellResult, len(p.Cells))
			seed := baseSeed + uint64(si)
			for ci, c := range p.Cells {
				pi, si, ci, c := pi, si, ci, c
				worlds += c.Worlds
				weights = append(weights, c.Weight)
				jobs = append(jobs, Job{
					Fig:  p.Name,
					Cell: fmt.Sprintf("%s seed=%d", c.Label, seed),
					Run: func() error {
						r, err := c.Run(seed)
						if err != nil {
							return fmt.Errorf("figure %s, %s (seed %d): %w", plans[pi].Name, c.Label, seed, err)
						}
						results[pi][si][ci] = r
						return nil
					},
				})
			}
		}
	}
	// Dispatch heaviest cells first so the long poles start immediately;
	// results land in fixed slots, so dispatch order cannot leak into the
	// output.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	ordered := make([]Job, len(jobs))
	for i, j := range order {
		ordered[i] = jobs[j]
	}

	start := time.Now()
	stats, err := Runner{Workers: workers}.Run(ordered)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}

	var out strings.Builder
	for pi, p := range plans {
		if seeds == 1 {
			out.WriteString(p.render(results[pi][0]))
		} else {
			out.WriteString(renderReplicated(p, results[pi], baseSeed))
		}
		out.WriteString("\n")
	}

	merged := obs.Snapshot{}
	for pi := range plans {
		for si := 0; si < seeds; si++ {
			for _, r := range results[pi][si] {
				if r.HasObs {
					merged = merged.Merge(r.Obs)
				}
			}
		}
	}

	bench := BenchReport{
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Workers:      workers,
		Seed:         baseSeed,
		Seeds:        seeds,
		Worlds:       worlds,
		WallSeconds:  wall.Seconds(),
		WorldsPerSec: float64(worlds) / wall.Seconds(),
	}
	perFig := map[string]*FigureTiming{}
	for _, st := range stats {
		ft := perFig[st.Fig]
		if ft == nil {
			ft = &FigureTiming{Fig: st.Fig}
			perFig[st.Fig] = ft
		}
		ft.Cells++
		ft.Seconds += st.Elapsed.Seconds()
		if s := st.Elapsed.Seconds(); s > ft.MaxCellSeconds {
			ft.MaxCellSeconds = s
		}
	}
	for _, p := range plans {
		if ft := perFig[p.Name]; ft != nil {
			bench.Figures = append(bench.Figures, *ft)
		}
	}

	return &SweepResult{Output: out.String(), Obs: merged, Bench: bench}, nil
}

// --- figure plans ----------------------------------------------------------

// methodNames is the per-method cell axis shared by most figures; it
// mirrors World.Methods (TestPlanTable holds the two equal).
var methodNames = []string{"native-vpn", "openvpn", "tor", "shadowsocks", "scholarcloud"}

// sweepPlans is the figure table: every figure the harness can run, in
// presentation order.
func sweepPlans(q Quality) []figurePlan {
	return []figurePlan{
		staticPlan("2", "Figure 1/2 — system architecture", func(uint64) string { return ReportArchitecture() }),
		staticPlan("3", "Figure 3 — survey", func(seed uint64) string {
			return survey.FormatFigure3(survey.Generate(survey.Respondents, seed))
		}),
		fig4Plan(),
		fig5aPlan(q),
		fig5bPlan(q),
		fig5cPlan(q),
		fig6aPlan(q),
		fig6bcPlan(q),
		fig7Plan(q),
		opsPlan(q),
		fleetPlan(q),
		cachePlan(q),
		faultsPlan(q),
		transportsPlan(q),
		censorPlan(q),
		shardsPlan(q),
		autoscalePlan(q),
		scalePlan(q),
	}
}

// staticPlan wraps a figure that needs no world (still run as a job so its
// timing is recorded).
func staticPlan(name, title string, render func(seed uint64) string) figurePlan {
	return figurePlan{
		Name:  name,
		Title: title,
		Cells: []cell{{
			Label: "static",
			Run: func(seed uint64) (cellResult, error) {
				return cellResult{Row: render(seed)}, nil
			},
		}},
	}
}

func concatRows(rs []cellResult) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Row)
	}
	return b.String()
}

// methodCells is the cell axis of the per-method figures: one default
// world per named access method.
func methodCells(names []string, weight int, measure func(w *World, f Factory) (cellResult, error)) []cell {
	cells := make([]cell, len(names))
	for i, name := range names {
		cells[i] = worldCell(name, weight, Config{}, func(w *World) (cellResult, error) {
			f, _ := w.FactoryByName(name)
			return measure(w, f)
		})
	}
	return cells
}

func fmtSummary(s obs.Summary) string {
	return fmt.Sprintf("%s [%s, %s]",
		obs.FormatSeconds(s.Mean), obs.FormatSeconds(s.Min), obs.FormatSeconds(s.Max))
}

func fig4Plan() figurePlan {
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "-"
	}
	const row = "  %-13s %-6s %-6s %-6s %-6s %s\n"
	return figurePlan{
		Name:  "4",
		Title: "Figure 4 — TCP connections in one Scholar access",
		Header: "Figure 4 — TCP connections in one Scholar access\n" +
			fmt.Sprintf(row, "method", "TCP-1", "TCP-2", "TCP-3", "TCP-4", "TCP-4 on revisit"),
		Cells: methodCells(methodNames, 1, func(w *World, f Factory) (cellResult, error) {
			ss, err := w.MeasureSessionStructure(f)
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{Row: fmt.Sprintf(row,
				ss.Method, mark(ss.TCP1), mark(ss.TCP2), mark(ss.TCP3), mark(ss.TCP4), mark(ss.SubsequentTCP4))}, nil
		}),
		Render: func(rs []cellResult) string {
			return concatRows(rs) +
				"  (TCP-1: proxy auth; TCP-2: HTTPS redirect; TCP-3: data; TCP-4: first-visit account recording)\n"
		},
	}
}

func fig5aPlan(q Quality) figurePlan {
	const row = "  %-13s %-26s %s\n"
	return figurePlan{
		Name:  "5a",
		Title: "Figure 5a — page load time (first-time / subsequent)",
		Header: "Figure 5a — page load time (first-time / subsequent)\n" +
			fmt.Sprintf(row, "method", "first-time mean [min,max]", "subsequent mean [min,max]"),
		Cells: methodCells(methodNames, 2, func(w *World, f Factory) (cellResult, error) {
			r, err := w.MeasurePLT(f, q.FirstRuns, q.Subsequent)
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{
				Row: fmt.Sprintf(row, r.Method, fmtSummary(r.FirstTime), fmtSummary(r.Subsequent)),
				Values: []namedValue{
					{Name: "first-time", Value: r.FirstTime.Mean, Unit: "s"},
					{Name: "subsequent", Value: r.Subsequent.Mean, Unit: "s"}},
			}, nil
		}),
	}
}

func fig5bPlan(q Quality) figurePlan {
	const row = "  %-13s %s\n"
	return figurePlan{
		Name:  "5b",
		Title: "Figure 5b — round-trip time through each method",
		Header: "Figure 5b — round-trip time through each method\n" +
			fmt.Sprintf(row, "method", "RTT mean [min,max]"),
		Cells: methodCells(methodNames, 1, func(w *World, f Factory) (cellResult, error) {
			r, err := w.MeasureRTT(f, q.RTTProbes)
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{
				Row:    fmt.Sprintf(row, r.Method, fmtSummary(r.RTT)),
				Values: []namedValue{{Name: "rtt", Value: r.RTT.Mean, Unit: "s"}},
			}, nil
		}),
	}
}

func fig5cPlan(q Quality) figurePlan {
	names := append(append([]string{}, methodNames...), "direct-us")
	return figurePlan{
		Name:  "5c",
		Title: "Figure 5c — packet loss rate (robustness to censorship)",
		Header: "Figure 5c — packet loss rate (robustness to censorship)\n" +
			fmt.Sprintf("  %-13s %-8s %s\n", "method", "PLR", "packets"),
		Cells: methodCells(names, 2, func(w *World, f Factory) (cellResult, error) {
			r, err := w.MeasurePLR(f, q.PLRVisits)
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{
				Row:    fmt.Sprintf("  %-13s %-8s %d\n", r.Method, obs.FormatPercent(r.PLR), r.Packets),
				Values: []namedValue{{Name: "plr", Value: r.PLR * 100, Unit: "%"}},
			}, nil
		}),
	}
}

// fig6aPlan measures per-access traffic; the uncensored baseline is cell 0
// and the overhead column is computed at render time, once every cell is
// in (the one cross-cell dependency of the sweep).
func fig6aPlan(q Quality) figurePlan {
	names := append([]string{"direct-us"}, methodNames...)
	return figurePlan{
		Name:   "6a",
		Title:  "Figure 6a — client network traffic per access",
		Header: "Figure 6a — client network traffic per access\n",
		Cells: methodCells(names, 1, func(w *World, f Factory) (cellResult, error) {
			r, err := w.MeasureTraffic(f, q.TrafficVisits)
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{Values: []namedValue{{Name: "traffic", Value: r.BytesPerAccess, Unit: "KB"}}}, nil
		}),
		Render: func(rs []cellResult) string {
			var b strings.Builder
			baseline := rs[0].Values[0].Value
			fmt.Fprintf(&b, "  %-13s %-9s (baseline)\n", names[0], obs.FormatKB(baseline))
			for i := 1; i < len(rs); i++ {
				v := rs[i].Values[0].Value
				fmt.Fprintf(&b, "  %-13s %-9s (+%s overhead)\n", names[i],
					obs.FormatKB(v), obs.FormatKB(v-baseline))
			}
			return b.String()
		},
	}
}

func fig6bcPlan(q Quality) figurePlan {
	const row = "  %-13s %-12s %-10s %-12s %s\n"
	return figurePlan{
		Name:  "6bc",
		Title: "Figure 6b/6c — client CPU% and memory",
		Header: "Figure 6b/6c — client CPU% and memory (cost model over measured traffic)\n" +
			fmt.Sprintf(row, "method", "browser CPU", "extra CPU", "mem before", "mem after"),
		Cells: methodCells(methodNames, 1, func(w *World, f Factory) (cellResult, error) {
			r, err := w.MeasureTraffic(f, q.TrafficVisits)
			if err != nil {
				return cellResult{}, err
			}
			model := f.Name
			if model == "native-vpn" {
				model = "native-vpn-pptp"
			}
			if model == "tor" {
				model = "tor-meek"
			}
			est := costmodel.ForMethod(model, r.BytesPerAccess, 3)
			return cellResult{
				Row: fmt.Sprintf(row, f.Name,
					fmt.Sprintf("%.2f%%", est.BrowserCPU),
					fmt.Sprintf("%.2f%%", est.ExtraCPU),
					fmt.Sprintf("%.0f MB", est.MemBeforeMB),
					fmt.Sprintf("%.0f MB", est.MemAfterMB)),
				Values: []namedValue{
					{Name: "browser-cpu", Value: est.BrowserCPU, Unit: "%"},
					{Name: "extra-cpu", Value: est.ExtraCPU, Unit: "%"}},
			}, nil
		}),
	}
}

// pltCell renders a mean PLT, flagged with the failed-visit count if any.
func pltCell(plt obs.Summary, failed int) string {
	txt := obs.FormatSeconds(plt.Mean)
	if failed > 0 {
		txt += fmt.Sprintf("(%df)", failed)
	}
	return txt
}

// fig7Plan runs one cell per (clients, method) grid point. Tor is
// excluded, as in the paper (its servers are not under the operator's
// control).
func fig7Plan(q Quality) figurePlan {
	methods := []string{"native-vpn", "openvpn", "shadowsocks", "scholarcloud"}
	header := "Figure 7 — mean PLT vs concurrent clients\n" + fmt.Sprintf("  %-9s", "clients")
	for _, name := range methods {
		header += fmt.Sprintf(" %-13s", name)
	}
	var cells []cell
	for _, n := range q.ScaleSweep {
		for _, name := range methods {
			cells = append(cells, worldCell(fmt.Sprintf("%s n=%d", name, n), 2+n, Config{},
				func(w *World) (cellResult, error) {
					f, _ := w.FactoryByName(name)
					p, err := w.MeasureScalability(f, n, q.ScaleRounds)
					if err != nil {
						return cellResult{}, err
					}
					return cellResult{
						Row:    pltCell(p.PLT, p.Failed),
						Values: []namedValue{{Name: "plt", Value: p.PLT.Mean, Unit: "s"}},
					}, nil
				}))
		}
	}
	return figurePlan{
		Name:   "7",
		Title:  "Figure 7 — mean PLT vs concurrent clients",
		Header: header + "\n",
		Cells:  cells,
		Render: func(rs []cellResult) string {
			var b strings.Builder
			for ni, n := range q.ScaleSweep {
				fmt.Fprintf(&b, "  %-9d", n)
				for mi := range methods {
					fmt.Fprintf(&b, " %-13s", rs[ni*len(methods)+mi].Row)
				}
				b.WriteString("\n")
			}
			return b.String()
		},
	}
}

// opsPlan reproduces the paper's §1 deployment economics: the service ran
// on two VMs at 2.2 USD/day for ~700 daily users.
func opsPlan(q Quality) figurePlan {
	return figurePlan{
		Name:   "ops",
		Title:  "Deployment economics",
		Header: "Deployment economics (paper §1: two VMs, ~700 daily users, 2.2 USD/day)\n",
		Cells: []cell{worldCell("scholarcloud", 1, Config{}, func(w *World) (cellResult, error) {
			tr, err := w.MeasureTraffic(w.ScholarCloudFactory(), q.TrafficVisits)
			if err != nil {
				return cellResult{}, err
			}
			bill := opscost.Estimate(opscost.PaperWorkload(tr.BytesPerAccess), opscost.DefaultPricing())
			var out strings.Builder
			fmt.Fprintf(&out, "  measured traffic/access  %s\n", obs.FormatKB(tr.BytesPerAccess))
			fmt.Fprintf(&out, "  VM cost                  $%.2f/day (2 instances)\n", bill.VMCostUSD)
			fmt.Fprintf(&out, "  egress                   %.2f GB -> $%.2f/day\n", bill.TrafficGB, bill.TrafficCostUSD)
			fmt.Fprintf(&out, "  total                    $%.2f/day ($%.4f per user)\n", bill.TotalUSD, bill.PerUserUSD)
			return cellResult{
				Row:    out.String(),
				Values: []namedValue{{Name: "total", Value: bill.TotalUSD, Unit: "USD/day"}},
			}, nil
		})},
	}
}

// fleetPlan renders the fleet-scalability experiment: a Fig. 7-style
// PLT-vs-clients sweep at 1/2/4 remotes (one remote is the paper's
// deployment), one world per (load, remotes) point, plus the takedown run.
func fleetPlan(q Quality) figurePlan {
	const clients = 120
	var cells []cell
	for _, load := range []int{clients, 2 * clients, 4 * clients} {
		for _, remotes := range []int{1, 2, 4} {
			cells = append(cells, worldCell(fmt.Sprintf("remotes=%d n=%d", remotes, load), 100+load,
				Config{FleetRemotes: remotes}, func(w *World) (cellResult, error) {
					p, err := w.MeasureFleetScalability(load, q.ScaleRounds)
					if err != nil {
						return cellResult{}, err
					}
					return cellResult{
						Row: fmt.Sprintf("  %-10d %-18s %-10s %-10s %-8d %d\n", load,
							fmt.Sprintf("fleet, %d remote(s)", remotes),
							obs.FormatSeconds(p.PLT.Mean), obs.FormatSeconds(p.PLT.P95),
							p.Failed, p.PLT.N),
						Values: []namedValue{{Name: "plt", Value: p.PLT.Mean, Unit: "s"}},
					}, nil
				}))
		}
	}
	cells = append(cells, worldCell("takedown", 100+60, Config{FleetRemotes: 4}, func(w *World) (cellResult, error) {
		killAt := visitInterval / 2
		res, err := w.MeasureFleetTakedown(60, q.ScaleRounds+1, 0, killAt)
		if err != nil {
			return cellResult{}, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "\nTakedown during load (%d clients, 4 remotes; primary seized at t=%s)\n",
			res.Clients, obs.FormatSeconds(killAt.Seconds()))
		fmt.Fprintf(&b, "  %-28s %-8s %s\n", "visits started", "count", "failed")
		fmt.Fprintf(&b, "  %-28s %-8d %d\n", "before takedown", res.VisitsBefore, res.FailedBefore)
		fmt.Fprintf(&b, "  %-28s %-8d %d\n",
			fmt.Sprintf("within ejection window (%s)", obs.FormatSeconds(res.Window.Seconds())),
			res.VisitsWindow, res.FailedWindow)
		fmt.Fprintf(&b, "  %-28s %-8d %d\n", "after ejection window", res.VisitsAfter, res.FailedAfter)
		if res.FailedAfter > 0 {
			fmt.Fprintf(&b, "  WARNING: failures persisted past the ejection window\n")
		}
		return cellResult{
			Row:    b.String(),
			Values: []namedValue{{Name: "failed-after-window", Value: float64(res.FailedAfter), Unit: ""}},
		}, nil
	}))
	return figurePlan{
		Name:  "fleet",
		Title: "Fleet — remote-proxy pool scalability",
		Header: "Fleet — remote-proxy pool scalability (ScholarCloud, continuous browsing)\n" +
			fmt.Sprintf("  %-10s %-18s %-10s %-10s %-8s %s\n",
				"clients", "deployment", "mean-PLT", "p95-PLT", "failed", "visits"),
		Cells: cells,
	}
}

// --- multi-seed rendering --------------------------------------------------

// renderReplicated renders a figure aggregated across seeds: every cell
// value becomes a mean ± 95% CI line. Figures without numeric values
// (architecture, survey, session structure) are seed-stable tables, so the
// base seed's rendering is shown with a note.
func renderReplicated(p figurePlan, perSeed [][]cellResult, baseSeed uint64) string {
	numeric := false
	for _, r := range perSeed[0] {
		if len(r.Values) > 0 {
			numeric = true
			break
		}
	}
	if !numeric {
		var b strings.Builder
		b.WriteString(p.render(perSeed[0]))
		fmt.Fprintf(&b, "  (structural figure: seed %d shown; identical across the %d replicate seeds)\n",
			baseSeed, len(perSeed))
		return b.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d seeds (%d..%d), mean ± 95%% CI\n",
		p.Title, len(perSeed), baseSeed, baseSeed+uint64(len(perSeed))-1)
	for ci, c := range p.Cells {
		for vi := range perSeed[0][ci].Values {
			vals := make([]float64, len(perSeed))
			for si := range perSeed {
				vals[si] = perSeed[si][ci].Values[vi].Value
			}
			v := perSeed[0][ci].Values[vi]
			mean, ci95 := meanCI95(vals)
			label := c.Label
			if v.Name != "" {
				label += " " + v.Name
			}
			fmt.Fprintf(&b, "  %-28s %s ± %s\n", label,
				formatValue(mean, v.Unit), formatValue(ci95, v.Unit))
		}
	}
	return b.String()
}

// meanCI95 returns the sample mean and the half-width of the normal 95%
// confidence interval (1.96·s/√n; 0 for n < 2).
func meanCI95(vals []float64) (mean, ci float64) {
	n := float64(len(vals))
	for _, v := range vals {
		mean += v
	}
	mean /= n
	if len(vals) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 1.96 * sd / math.Sqrt(n)
}

func formatValue(v float64, unit string) string {
	switch unit {
	case "s":
		return obs.FormatSeconds(v)
	case "KB":
		return obs.FormatKB(v)
	case "%":
		return fmt.Sprintf("%.2f%%", v)
	case "USD/day":
		return fmt.Sprintf("$%.2f/day", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
