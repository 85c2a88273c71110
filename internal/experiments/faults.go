package experiments

import (
	"fmt"
	"strings"
	"time"

	"scholarcloud/internal/faults"
	"scholarcloud/internal/metrics"
)

// faultsStressInterval is the per-client revisit cadence under fault
// injection — the same continuous-browsing pressure as the fleet and
// cache sweeps, compressed from the paper's 60 s so every fault window
// catches page loads in flight.
const faultsStressInterval = 20 * time.Second

// faultsClients is the concurrent-client load every fault scenario runs
// under.
const faultsClients = 24

// faultsRemotes sizes the remote fleet in fault worlds: two remotes, so a
// primary takedown leaves exactly one survivor for hedged failover.
const faultsRemotes = 2

// FaultsResult is one (scenario, resilience) cell of the faults figure.
type FaultsResult struct {
	Scenario   string
	Resilience bool
	Clients    int
	PLT        metrics.Summary // seconds, successful visits only
	Visits     int
	Failed     int
}

// SuccessRate is the fraction of page loads that completed.
func (r *FaultsResult) SuccessRate() float64 {
	if r.Visits == 0 {
		return 0
	}
	return 1 - float64(r.Failed)/float64(r.Visits)
}

// MeasureFaults runs n concurrent ScholarCloud clients for `rounds` visit
// rounds while the world's configured fault scenario executes on the
// virtual clock. The script is armed at the load's first virtual instant,
// so event offsets are relative to the start of the measurement window.
func (w *World) MeasureFaults(n, rounds int) (*FaultsResult, error) {
	if err := w.Run(func() error { w.InjectFaults(); return nil }); err != nil {
		return nil, err
	}
	p, err := w.measureScalabilityAt(w.Methods()[4], n, rounds, faultsStressInterval, false)
	if err != nil {
		return nil, err
	}
	return &FaultsResult{
		Scenario:   w.Cfg.FaultScenario,
		Resilience: w.Cfg.Resilience,
		Clients:    n,
		PLT:        p.PLT,
		Visits:     p.PLT.N + p.Failed,
		Failed:     p.Failed,
	}, nil
}

// faultsRow formats one scenario × resilience row.
func faultsRow(r *FaultsResult) string {
	mode := "off"
	if r.Resilience {
		mode = "on"
	}
	return fmt.Sprintf("  %-20s %-11s %-10s %-10s %-8d %-8d %.1f%%\n",
		r.Scenario, mode,
		metrics.FormatSeconds(r.PLT.Mean), metrics.FormatSeconds(r.PLT.P95),
		r.Visits, r.Failed, 100*r.SuccessRate())
}

// faultsHeader formats the figure's preamble and column header.
func faultsHeader(rounds int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Faults & resilience (%d clients, %d remotes, %d rounds at %s cadence)\n",
		faultsClients, faultsRemotes, rounds, metrics.FormatSeconds(faultsStressInterval.Seconds()))
	fmt.Fprintf(&b, "  %-20s %-11s %-10s %-10s %-8s %-8s %s\n",
		"scenario", "resilience", "plt(mean)", "plt(p95)", "visits", "failed", "success")
	return b.String()
}

// faultsPlan decomposes the faults figure for the parallel harness: one
// world per (scenario, resilience) cell, every cell deterministic, merged
// in declaration order.
func faultsPlan(q Quality) figurePlan {
	rounds := q.ScaleRounds + 1
	var cells []cell
	cells = append(cells, cell{
		Label: "header",
		Run: func(uint64) (cellResult, error) {
			return cellResult{Row: faultsHeader(rounds)}, nil
		},
	})
	for _, scenario := range faults.Scenarios() {
		for _, resil := range []bool{false, true} {
			scenario, resil := scenario, resil
			mode := "off"
			if resil {
				mode = "on"
			}
			cells = append(cells, cell{
				Label:  fmt.Sprintf("%s resilience=%s", scenario, mode),
				Worlds: 1,
				Weight: 100 + faultsClients,
				Run: func(seed uint64) (cellResult, error) {
					w := NewWorld(Config{
						Seed:          seed,
						FleetRemotes:  faultsRemotes,
						FaultScenario: scenario,
						Resilience:    resil,
						RunGuard:      sweepRunGuard,
					})
					defer w.Close()
					r, err := w.MeasureFaults(faultsClients, rounds)
					if err != nil {
						return cellResult{}, err
					}
					return settledResult(w, faultsRow(r),
						namedValue{Name: "success", Value: 100 * r.SuccessRate(), Unit: "%"},
						namedValue{Name: "plt", Value: r.PLT.Mean, Unit: "s"})
				},
			})
		}
	}
	return figurePlan{
		Name:   "faults",
		Title:  "Fault injection & client resilience",
		Cells:  cells,
		Render: concatRows,
	}
}
