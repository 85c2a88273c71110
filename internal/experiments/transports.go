package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"scholarcloud/internal/carrier"
	"scholarcloud/internal/gfw"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/opscost"
)

// transportsStressInterval is the per-client revisit cadence of the
// transport-ladder figure — the same continuous-browsing pressure as the
// faults sweep.
const transportsStressInterval = 20 * time.Second

// transportsClients is the concurrent-client load each censor stage runs
// under. Modest on purpose: the crackdown stages drive every page load
// through the DNS tunnel, whose lock-step exchanges serialize.
const transportsClients = 12

// TransportStage is one escalation step of the censor: which carrier
// fingerprints it blocks and how much of the rendezvous gateway pool it
// has blacklisted.
type TransportStage struct {
	Name string
	// Classes are the traffic-classifier verdicts the censor resets at
	// the border at this stage.
	Classes []gfw.Class
	// BlockGateways is how many rendezvous gateway addresses the censor
	// has blacklisted (a prefix of the pool).
	BlockGateways int
}

// nonWhitelisted are the classifier verdicts a protocol-whitelist
// crackdown resets: high-entropy streams, unrecognized cleartext, and
// the native VPN protocols the GFW has blocked for years. Only
// HTTP/TLS/DNS survive. The full set matters because a byte-substitution
// blinding epoch leaves roughly half the wire image printable — its
// flows land on either side of the printable-fraction heuristic (or on
// a loose VPN prefix match) depending on payload, and every landing
// spot must be blocked for the fingerprint to hold.
var nonWhitelisted = []gfw.Class{
	gfw.ClassEncrypted, gfw.ClassLowEntropy,
	gfw.ClassOpenVPN, gfw.ClassPPTP, gfw.ClassL2TP,
}

// TransportStages returns the censor's escalation script, mildest first:
// no interference, then whitelist-blocking every unrecognized protocol
// (which fingerprints out the blinded carrier), then additionally
// blacklisting half the rendezvous pool, then also resetting TLS
// cross-border TCP flows — the stage only a covert channel survives.
func TransportStages() []TransportStage {
	return []TransportStage{
		{Name: "open"},
		{Name: "fingerprint", Classes: nonWhitelisted},
		{Name: "fingerprint+ip", Classes: nonWhitelisted,
			BlockGateways: gatewayPoolSize / 2},
		{Name: "tcp-crackdown", Classes: append([]gfw.Class{gfw.ClassTLS}, nonWhitelisted...)},
	}
}

// TransportStageByName resolves one censor stage by name.
func TransportStageByName(name string) (TransportStage, bool) {
	for _, s := range TransportStages() {
		if s.Name == name {
			return s, true
		}
	}
	return TransportStage{}, false
}

// TransportStageNames lists the censor stages in escalation order.
func TransportStageNames() []string {
	stages := TransportStages()
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name
	}
	return names
}

// ApplyTransportStage arms stage s on the world's censor. Stages are
// cumulative in spirit but each figure cell runs a fresh world, so the
// stage carries its full block set.
func (w *World) ApplyTransportStage(s TransportStage) error {
	return w.Run(func() error {
		if w.GFW == nil {
			return nil
		}
		p := w.GFW.ActivePolicy()
		p.BlockClasses = append([]gfw.Class(nil), s.Classes...)
		n := s.BlockGateways
		if n > len(w.gatewayIPs) {
			n = len(w.gatewayIPs)
		}
		p.BlockIPs = append(p.BlockIPs, w.gatewayIPs[:n]...)
		w.GFW.Apply(p)
		return nil
	})
}

// TransportsResult is one censor-stage cell of the transport-ladder
// figure.
type TransportsResult struct {
	Stage   string
	Clients int
	// FinalRung is the ladder's active transport once the stage's load
	// completes — where the escalation walk settled.
	FinalRung   string
	Escalations int64
	// Invocations is how many rendezvous endpoint invocations (cold
	// starts) the stage's load paid for.
	Invocations int64
	PLT         obs.Summary // seconds, successful visits only
	Visits      int
	Failed      int
}

// SuccessRate is the fraction of page loads that completed.
func (r *TransportsResult) SuccessRate() float64 {
	if r.Visits == 0 {
		return 0
	}
	return 1 - float64(r.Failed)/float64(r.Visits)
}

// InvocationCostUSD extrapolates the measured invocation rate to the
// paper's daily workload (§1: ~700 users, ~20 accesses each) under
// metered serverless pricing — the opscost hook that prices the
// rendezvous rung against the 2.2 USD/day VM deployment.
func (r *TransportsResult) InvocationCostUSD() float64 {
	if r.Visits == 0 || r.Invocations == 0 {
		return 0
	}
	wk := opscost.PaperWorkload(0)
	wk.InvocationsPerAccess = float64(r.Invocations) / float64(r.Visits)
	p := opscost.DefaultPricing()
	p.InvocationUSD = rendezvousInvocationUSD
	return opscost.Estimate(wk, p).InvocationCostUSD
}

// MeasureTransports arms censor stage s, then runs n concurrent
// ScholarCloud clients for `rounds` visit rounds against the world's
// transport ladder and reports where the escalation walk settled. The
// world must have been built with Config.Transports.
func (w *World) MeasureTransports(s TransportStage, n, rounds int) (*TransportsResult, error) {
	if w.Ladder == nil {
		return nil, errors.New("experiments: world has no transport ladder (set Config.Transports)")
	}
	if err := w.ApplyTransportStage(s); err != nil {
		return nil, err
	}
	p, err := w.measureScalabilityAt(w.ScholarCloudFactory(), n, rounds, transportsStressInterval, false)
	if err != nil {
		return nil, err
	}
	r := &TransportsResult{
		Stage:       s.Name,
		Clients:     n,
		FinalRung:   w.Ladder.ActiveName(),
		Escalations: w.Ladder.Escalations(),
		PLT:         p.PLT,
		Visits:      p.PLT.N + p.Failed,
		Failed:      p.Failed,
	}
	if w.RendezvousCarrier != nil {
		r.Invocations = w.RendezvousCarrier.Invocations()
	}
	return r, nil
}

// transportsRow formats one censor-stage row.
func transportsRow(r *TransportsResult) string {
	return fmt.Sprintf("  %-16s %-12s %-10s %-10s %-8d %-8d %-9s %-7d %-9d %.2f\n",
		r.Stage, r.FinalRung,
		obs.FormatSeconds(r.PLT.Mean), obs.FormatSeconds(r.PLT.P95),
		r.Visits, r.Failed, fmt.Sprintf("%.1f%%", 100*r.SuccessRate()),
		r.Escalations, r.Invocations, r.InvocationCostUSD())
}

// transportsPlan decomposes the transport-ladder figure for the parallel
// harness: one world per censor stage, every cell deterministic, merged
// in declaration order.
func transportsPlan(q Quality) figurePlan {
	rounds := q.ScaleRounds + 1
	var cells []cell
	for _, stage := range TransportStages() {
		cells = append(cells, worldCell(stage.Name, 100+transportsClients,
			Config{Transports: carrier.Known(), Resilience: true}, func(w *World) (cellResult, error) {
				r, err := w.MeasureTransports(stage, transportsClients, rounds)
				if err != nil {
					return cellResult{}, err
				}
				return cellResult{Row: transportsRow(r), Values: []namedValue{
					{Name: "success", Value: 100 * r.SuccessRate(), Unit: "%"},
					{Name: "plt", Value: r.PLT.Mean, Unit: "s"}}}, nil
			}))
	}
	return figurePlan{
		Name:  "transports",
		Title: "Carrier transports & escalation ladder",
		Header: fmt.Sprintf("Transport ladder (%d clients, %d rounds at %s cadence; rungs: %s)\n",
			transportsClients, rounds,
			obs.FormatSeconds(transportsStressInterval.Seconds()),
			strings.Join(carrier.Known(), " -> ")) +
			fmt.Sprintf("  %-16s %-12s %-10s %-10s %-8s %-8s %-9s %-7s %-9s %s\n",
				"censor stage", "final rung", "plt(mean)", "plt(p95)",
				"visits", "failed", "success", "escal", "invokes", "usd/day"),
		Cells: cells,
	}
}
