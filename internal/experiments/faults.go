package experiments

import (
	"fmt"
	"time"

	"scholarcloud/internal/faults"
	"scholarcloud/internal/obs"
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
	PLT        obs.Summary // seconds, successful visits only
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
	p, err := w.measureScalabilityAt(w.ScholarCloudFactory(), n, rounds, faultsStressInterval, false)
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
		obs.FormatSeconds(r.PLT.Mean), obs.FormatSeconds(r.PLT.P95),
		r.Visits, r.Failed, 100*r.SuccessRate())
}

// faultsPlan decomposes the faults figure for the parallel harness: one
// world per (scenario, resilience) cell, every cell deterministic, merged
// in declaration order.
func faultsPlan(q Quality) figurePlan {
	rounds := q.ScaleRounds + 1
	var cells []cell
	for _, scenario := range faults.Scenarios() {
		for _, mode := range []string{"off", "on"} {
			cells = append(cells, worldCell(fmt.Sprintf("%s resilience=%s", scenario, mode), 100+faultsClients,
				Config{FleetRemotes: faultsRemotes, FaultScenario: scenario, Resilience: mode == "on"},
				func(w *World) (cellResult, error) {
					r, err := w.MeasureFaults(faultsClients, rounds)
					if err != nil {
						return cellResult{}, err
					}
					return cellResult{Row: faultsRow(r), Values: []namedValue{
						{Name: "success", Value: 100 * r.SuccessRate(), Unit: "%"},
						{Name: "plt", Value: r.PLT.Mean, Unit: "s"}}}, nil
				}))
		}
	}
	return figurePlan{
		Name:  "faults",
		Title: "Fault injection & client resilience",
		Header: fmt.Sprintf("Faults & resilience (%d clients, %d remotes, %d rounds at %s cadence)\n",
			faultsClients, faultsRemotes, rounds, obs.FormatSeconds(faultsStressInterval.Seconds())) +
			fmt.Sprintf("  %-20s %-11s %-10s %-10s %-8s %-8s %s\n",
				"scenario", "resilience", "plt(mean)", "plt(p95)", "visits", "failed", "success"),
		Cells: cells,
	}
}
