package experiments

// flow.go is the flow-level client mode: a cohort of identical browsers
// modeled as fluid load (an arrival rate × a calibrated per-visit
// resource demand) plus a small set of real packet-level clients sampled
// from the cohort. The fluid share consumes border bandwidth and server
// CPU analytically — netsim serializes sampled packets at the residual
// bandwidth and inflates sampled compute by the processor-sharing factor
// — so a world can carry a million-client cohort for the cost of
// simulating a handful of packet clients. That is what lets the scale
// figure sweep 1k → 1M clients; the flow-vs-packet equivalence test
// pins the approximation against the packet-level truth at small N.

import (
	"fmt"
	"math"
	"time"

	"scholarcloud/internal/netsim"
	"scholarcloud/internal/obs"
)

// FlowDemand is the calibrated per-visit resource demand of one marginal
// cohort member: border bytes by direction and server CPU by tier, split
// into the first (account setup, cold caches) and subsequent visit
// shapes of the paper's workload.
type FlowDemand struct {
	FirstBytesUp   int64 // CN→US border bytes, first visit
	FirstBytesDown int64 // US→CN border bytes, first visit
	SubBytesUp     int64
	SubBytesDown   int64
	FirstRemoteCPU time.Duration
	SubRemoteCPU   time.Duration
	FirstDomestic  time.Duration
	SubDomestic    time.Duration
	FirstPLT       time.Duration
	SubPLT         time.Duration
}

// avgBytes returns the cohort's per-visit border bytes (up, down)
// averaged over a `rounds`-visit session (one first visit, the rest
// subsequent).
func (d FlowDemand) avgBytes(rounds int) (up, down float64) {
	r := float64(rounds)
	up = (float64(d.FirstBytesUp) + (r-1)*float64(d.SubBytesUp)) / r
	down = (float64(d.FirstBytesDown) + (r-1)*float64(d.SubBytesDown)) / r
	return up, down
}

// avgCPU returns the cohort's per-visit CPU demand on a tier averaged
// over a `rounds`-visit session.
func avgCPU(first, sub time.Duration, rounds int) float64 {
	r := float64(rounds)
	return (first.Seconds() + (r-1)*sub.Seconds()) / r
}

// FlowPoint is one cell of the flow-level scalability figure.
type FlowPoint struct {
	Method  string
	Clients int // cohort size (fluid + sampled)
	Sampled int // packet-level clients sampled from the cohort
	Rounds  int

	// PLT and Failed summarize the sampled clients' visits, which ran
	// under the cohort's fluid load.
	PLT    obs.Summary // seconds
	Failed int

	// Demand is the calibrated marginal per-visit demand the fluid share
	// was scaled from.
	Demand FlowDemand

	// Utilizations are the analytic offered-load fractions the cohort
	// imposes: border is the max over directions of fluid bytes/sec over
	// link capacity; the tier utilizations are per-host CPU demand
	// (arrival rate × per-visit CPU / tier size).
	BorderUtilization   float64
	RemoteUtilization   float64
	DomesticUtilization float64
	// RequiredRemotes is the analytic floor on remote-proxy count for the
	// remote tier to keep utilization under 1 at this cohort size.
	RequiredRemotes int
	// Saturated reports that some resource's offered load is ≥ 1: the
	// deployment cannot serve this cohort at the workload cadence, and
	// the sampled PLTs show the (clamped) overload response.
	Saturated bool

	// BorderBytes is the cohort's total border traffic for the session:
	// measured for the sampled clients, demand-scaled for the fluid rest.
	BorderBytes    int64
	BytesPerClient float64
}

// flowRemoteHosts is the remote-proxy CPU tier the fluid cohort loads.
func (w *World) flowRemoteHosts() []*netsim.Host {
	hosts := []*netsim.Host{w.SCRemoteHost}
	return append(hosts, w.fleetRemoteHosts...)
}

func sumCPUBusy(hosts []*netsim.Host) time.Duration {
	var total time.Duration
	for _, h := range hosts {
		total += h.Stats().CPUBusy
	}
	return total
}

func borderDelta(before, after netsim.LinkStats) (up, down int64) {
	return after.DirBytes[0] - before.DirBytes[0], after.DirBytes[1] - before.DirBytes[1]
}

// flowVisitPair runs one client session — a first visit and one
// subsequent visit at the workload cadence — on host h and, when d is
// non-nil, records the border-byte and tier-CPU deltas of each visit.
// Must run inside a Run window.
func (w *World) flowVisitPair(f Factory, h *netsim.Host, d *FlowDemand) error {
	remote, domestic := w.flowRemoteHosts(), w.ShardHosts
	method := f.New(h)
	defer method.Close()
	if err := prepare(method); err != nil {
		return fmt.Errorf("%s prepare: %w", f.Name, err)
	}
	browser := w.newBrowser(method)

	visit := func(up, down *int64, rcpu, dcpu, plt *time.Duration) error {
		b0 := w.Border.Stats()
		r0, d0 := sumCPUBusy(remote), sumCPUBusy(domestic)
		st := browser.Visit(f.URL)
		if st.Failed {
			return fmt.Errorf("%s calibration visit: %w", f.Name, st.Err)
		}
		if d != nil {
			*up, *down = borderDelta(b0, w.Border.Stats())
			*rcpu = sumCPUBusy(remote) - r0
			*dcpu = sumCPUBusy(domestic) - d0
			*plt = st.PLT
		}
		if sleep := visitInterval - st.PLT; sleep > 0 {
			w.Env.Clock.Sleep(sleep)
		}
		return nil
	}
	var sink FlowDemand
	if d == nil {
		d = &sink
	}
	if err := visit(&d.FirstBytesUp, &d.FirstBytesDown, &d.FirstRemoteCPU, &d.FirstDomestic, &d.FirstPLT); err != nil {
		return err
	}
	return visit(&d.SubBytesUp, &d.SubBytesDown, &d.SubRemoteCPU, &d.SubDomestic, &d.SubPLT)
}

// MeasureFlowScalability measures one cohort of n identical clients in
// flow mode: `sampled` of them run as real packet-level clients (the
// same staggered workload as MeasureScalability), the other n−sampled
// as fluid load calibrated from a marginal client's measured demand.
//
// The calibration runs two dedicated client sessions first: a warm-up
// session that pays the cohort's one-time costs (cache fill, account
// infrastructure), then a marginal session whose measured border bytes
// and tier CPU are the fluid per-client demand — in a cached world this
// is the warm-cache marginal cost, which is what every cohort member
// but the first actually pays. The fluid load is then imposed on the
// border link (residual-bandwidth sharing) and the proxy tiers
// (processor-sharing inflation) for the sampled phase, and removed
// afterwards.
func (w *World) MeasureFlowScalability(f Factory, n, rounds, sampled int) (*FlowPoint, error) {
	if rounds < 1 {
		rounds = 1
	}
	if sampled <= 0 {
		sampled = 3
	}
	if sampled > n {
		sampled = n
	}
	point := &FlowPoint{Method: f.Name, Clients: n, Sampled: sampled, Rounds: rounds}

	// Calibration. Client indices `sampled` and `sampled+1` keep the
	// calibration hosts disjoint from the sampled clients' hosts.
	err := w.Run(func() error {
		if err := w.flowVisitPair(f, w.newScaleClient(sampled), nil); err != nil {
			return fmt.Errorf("flow warm-up: %w", err)
		}
		if err := w.flowVisitPair(f, w.newScaleClient(sampled+1), &point.Demand); err != nil {
			return fmt.Errorf("flow calibration: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fluid share: arrival rate × calibrated demand, spread over the
	// serving tiers.
	m := n - sampled
	lambda := float64(m) / visitInterval.Seconds()
	remote, domestic := w.flowRemoteHosts(), w.ShardHosts
	upBps, downBps := 0.0, 0.0
	if m > 0 {
		avgUp, avgDown := point.Demand.avgBytes(rounds)
		upBps, downBps = lambda*avgUp, lambda*avgDown
		if bw := w.Border.Config().Bandwidth; bw > 0 {
			point.BorderUtilization = math.Max(upBps, downBps) / bw
		}
		remoteCPU := avgCPU(point.Demand.FirstRemoteCPU, point.Demand.SubRemoteCPU, rounds)
		domesticCPU := avgCPU(point.Demand.FirstDomestic, point.Demand.SubDomestic, rounds)
		point.RemoteUtilization = lambda * remoteCPU / float64(len(remote))
		point.DomesticUtilization = lambda * domesticCPU / float64(len(domestic))
		point.RequiredRemotes = int(math.Ceil(lambda * remoteCPU))
		if point.RequiredRemotes < 1 {
			point.RequiredRemotes = 1
		}
	}
	point.Saturated = point.BorderUtilization >= 1 ||
		point.RemoteUtilization >= 1 || point.DomesticUtilization >= 1

	w.Border.SetBackgroundLoad(upBps, downBps)
	for _, h := range remote {
		h.SetBackgroundUtilization(point.RemoteUtilization)
	}
	for _, h := range domestic {
		h.SetBackgroundUtilization(point.DomesticUtilization)
	}
	defer func() {
		w.Border.SetBackgroundLoad(0, 0)
		for _, h := range remote {
			h.SetBackgroundUtilization(0)
		}
		for _, h := range domestic {
			h.SetBackgroundUtilization(0)
		}
	}()

	// Sampled phase: real packet-level clients riding the loaded world.
	before := w.Border.Stats()
	results, err := w.runStaggeredClients(f, sampled, rounds, visitInterval, false)
	if err != nil {
		return nil, err
	}
	up, down := borderDelta(before, w.Border.Stats())

	plts := successfulPLTs(results)
	point.Failed = len(results) - len(plts)
	point.PLT = obs.SummarizeDurations(plts)

	// Border accounting: measured bytes for the sampled clients plus
	// demand-scaled bytes for the fluid share.
	perFluid := float64(point.Demand.FirstBytesUp+point.Demand.FirstBytesDown) +
		float64(rounds-1)*float64(point.Demand.SubBytesUp+point.Demand.SubBytesDown)
	point.BorderBytes = up + down + int64(float64(m)*perFluid)
	if n > 0 {
		point.BytesPerClient = float64(point.BorderBytes) / float64(n)
	}
	return point, nil
}

// --- The scale figure ------------------------------------------------------

// flowDeployment is the deployment ladder the scale figure provisions per
// cohort size: the paper's single remote for small cohorts, then a
// remote fleet, then fleet plus shared cache (which moves repeat traffic
// off the border — without it no deployment fits a large cohort behind
// a 10×access border link).
func flowDeployment(n int) (fleetRemotes, cacheMB int, label string) {
	switch {
	case n <= 2_000:
		return 0, 0, "classic"
	case n <= 20_000:
		return 8, 0, "fleet-8"
	case n <= 200_000:
		return 32, 64, "fleet-32+cache"
	default:
		return 64, 64, "fleet-64+cache"
	}
}

// scalePlan is the flow-mode scalability figure: one cell per cohort
// size, each in its own world against the ladder's deployment for that
// size. Saturated rows are the figure's point, not a failure: the
// analytic utilizations say what the cohort demands (and how many
// remotes it would take), and the sampled clients show the overload
// response.
func scalePlan(q Quality) figurePlan {
	var cells []cell
	for _, n := range q.FlowSweep {
		remotes, cacheMB, label := flowDeployment(n)
		cells = append(cells, worldCell(fmt.Sprintf("n=%d %s", n, label), 100+n/100,
			Config{FleetRemotes: remotes, CacheMB: cacheMB}, func(w *World) (cellResult, error) {
				p, err := w.MeasureFlowScalability(w.ScholarCloudFactory(), n, q.ScaleRounds, q.FlowSampled)
				if err != nil {
					return cellResult{}, err
				}
				note := ""
				if p.Saturated {
					note = fmt.Sprintf("SATURATED (needs >=%d remotes)", p.RequiredRemotes)
				}
				return cellResult{
					Row: fmt.Sprintf("  %-9d %-15s %-12s %-10s %6.1f%%  %6.1f%%  %-10s %s\n",
						p.Clients, label, pltCell(p.PLT, p.Failed), obs.FormatSeconds(p.PLT.P95),
						100*p.BorderUtilization, 100*p.RemoteUtilization,
						obs.FormatKB(p.BytesPerClient), note),
					Values: []namedValue{
						{Name: "plt", Value: p.PLT.Mean, Unit: "s"},
						{Name: "kb-per-client", Value: p.BytesPerClient, Unit: "KB"},
						{Name: "remote-util", Value: 100 * p.RemoteUtilization, Unit: "%"}},
				}, nil
			}))
	}
	return figurePlan{
		Name:  "scale",
		Title: "Scale — flow-level cohorts, 1k to 1M clients",
		Header: fmt.Sprintf("Scale — flow-level client cohorts (ScholarCloud; %d sampled packet-level clients per cohort)\n",
			q.FlowSampled) +
			fmt.Sprintf("  %-9s %-15s %-12s %-10s %-8s %-8s %-10s %s\n",
				"clients", "deployment", "mean-PLT", "p95-PLT", "border", "remote", "KB/client", "note"),
		Cells: cells,
	}
}
