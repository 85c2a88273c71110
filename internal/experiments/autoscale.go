package experiments

// Autoscaled-domestic-tier experiment: the sharded tier's shard count
// becomes a control variable. A metrics-driven control loop
// (internal/autoscale) samples the tier — offered sessions/sec, page-load
// p99, cache hit rate — and grows or shrinks the active shard set through
// the Director mid-run: joins pre-seed their owned keys from peers over
// the sibling path (no border stampede), retirements drain keys to the
// survivors. Two schedules exercise it: a flash crowd (calm → 5× surge →
// calm) and a compressed diurnal curve. Each runs three ways — a
// single-shard static tier (under-provisioned at peak), a static tier
// provisioned for the peak (idle off-peak), and the autoscaled tier —
// and the figure reports the frontier both baselines miss: peak-worthy
// p99 at off-peak cost.

import (
	"fmt"
	"time"

	"scholarcloud/internal/autoscale"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/opscost"
)

// autoscaleCadence is the schedules' visit cadence: continuous browsing
// with client content caches cleared every round (as in the cache and
// shards sweeps), so the proxy tier — not the browser cache — absorbs
// the load swings.
const autoscaleCadence = cacheStressInterval

// autoscaleTickInterval is the control loop's sampling period in the
// figure's worlds.
const autoscaleTickInterval = 15 * time.Second

// autoscaleShards is the provisioned tier size: the ceiling the
// autoscaled cells may grow into, and the static peak-provisioned
// baseline's fixed size.
const autoscaleShards = 4

// LoadPhase is one segment of a load schedule: Clients concurrent
// browsers visiting every autoscaleCadence, Rounds visits each. Phases
// run back to back; the offered-load signal steps at each boundary.
type LoadPhase struct {
	Name    string
	Clients int
	Rounds  int
}

// FlashCrowdSchedule is a steady trickle, a sudden 5x surge (a viral
// link, a deadline day), then calm again.
func FlashCrowdSchedule(q Quality) []LoadPhase {
	return scaledPhases(q, []LoadPhase{
		{Name: "calm", Clients: 8, Rounds: 3},
		{Name: "flash", Clients: 40, Rounds: 6},
		{Name: "calm", Clients: 8, Rounds: 4},
	})
}

// DiurnalSchedule compresses a working day of the paper's ~700-user
// population into a ramp-up/peak/ramp-down curve.
func DiurnalSchedule(q Quality) []LoadPhase {
	return scaledPhases(q, []LoadPhase{
		{Name: "night", Clients: 4, Rounds: 2},
		{Name: "morning", Clients: 16, Rounds: 3},
		{Name: "midday", Clients: 32, Rounds: 4},
		{Name: "evening", Clients: 16, Rounds: 3},
		{Name: "night", Clients: 4, Rounds: 3},
	})
}

// scaledPhases stretches each phase's rounds with the quality knob
// (Quick leaves the base schedule, Full lengthens it 1.5x). Phases stay
// long enough for the controller's hysteresis to clear.
func scaledPhases(q Quality, base []LoadPhase) []LoadPhase {
	out := make([]LoadPhase, len(base))
	for i, ph := range base {
		if r := ph.Rounds * q.ScaleRounds / 2; r > ph.Rounds {
			ph.Rounds = r
		}
		out[i] = ph
	}
	return out
}

// autoscaleFigPolicy targets ~12 concurrent clients per shard: 0.75
// utilization of a shard's 16-client (0.8 sessions/sec at the sweep
// cadence) working capacity. Hysteresis and cooldowns are compressed to
// match the compressed schedules; a real deployment would use minutes.
func autoscaleFigPolicy() autoscale.Policy {
	return autoscale.Policy{
		MinShards:           1,
		TargetUtilization:   0.75,
		ShardSessionsPerSec: 16.0 / autoscaleCadence.Seconds(),
		UpAfter:             2,
		DownAfter:           3,
		UpCooldown:          30 * time.Second,
		DownCooldown:        45 * time.Second,
	}
}

// autoscaleCellConfig provisions a k-shard tier; initial > 0 turns the
// autoscaler on with that many shards active at start (the rest parked
// as warm standbys).
func autoscaleCellConfig(seed uint64, k, initial int) Config {
	cfg := shardCellConfig(seed, k, false)
	if initial > 0 {
		cfg.AutoscaleInitial = initial
		cfg.AutoscalePolicy = autoscaleFigPolicy()
		cfg.AutoscaleInterval = autoscaleTickInterval
	}
	return cfg
}

// AutoscalePoint is one (schedule x provisioning mode) cell of the
// autoscale figure.
type AutoscalePoint struct {
	Schedule string
	Mode     string // "static-K" or "autoscaled"
	Visits   int
	Failed   int
	PLT      obs.Summary
	P99PLT   float64 // seconds
	// BorderBytes is the traffic the border link carried during the
	// schedule (both directions) — scale events included.
	BorderBytes int64
	// MeanShards is the time-weighted active shard count over the
	// schedule; with PeakShards it is the capacity story (a static tier
	// has MeanShards == PeakShards == K).
	MeanShards float64
	PeakShards int
	ScaleUps   int
	ScaleDowns int
	// PerUserUSD prices the day at the paper's workload with fractional
	// VM occupancy: the time-averaged tier size (plus the remote) at the
	// VM day rate, plus metered egress at the measured bytes/access.
	PerUserUSD float64
}

// MeasureAutoscale drives the load schedule against the world's domestic
// tier: each phase publishes its offered load to the autoscaler (inert
// on static worlds) and runs its staggered browsing cohort to
// completion. Reports user experience (PLT mean/p99), border traffic,
// the tier's capacity timeline, and the fractional-VM cost per user.
func (w *World) MeasureAutoscale(schedule string, phases []LoadPhase) (*AutoscalePoint, error) {
	mode := fmt.Sprintf("static-%d", w.shardCount())
	if w.Autoscaler != nil {
		mode = "autoscaled"
	}
	pt := &AutoscalePoint{Schedule: schedule, Mode: mode}
	borderBefore := w.Border.Stats().Bytes
	f := w.ScholarCloudFactory()

	start := w.Env.Clock.Now()
	startActive := w.shardCount()
	if w.Autoscaler != nil {
		startActive = len(w.Tier.Ring().Up())
	}
	var plts []time.Duration
	for _, ph := range phases {
		w.SetDemand(float64(ph.Clients)/autoscaleCadence.Seconds(), 0)
		results, err := w.runStaggeredClients(f, ph.Clients, ph.Rounds, autoscaleCadence, true)
		if err != nil {
			return nil, err
		}
		ok := successfulPLTs(results)
		pt.Visits += len(results)
		pt.Failed += len(results) - len(ok)
		plts = append(plts, ok...)
	}
	w.SetDemand(0, 0)
	end := w.Env.Clock.Now()

	pt.PLT = obs.SummarizeDurations(plts)
	secs := make([]float64, len(plts))
	for i, d := range plts {
		secs[i] = d.Seconds()
	}
	pt.P99PLT = obs.Percentile(secs, 0.99)
	pt.BorderBytes = w.Border.Stats().Bytes - borderBefore
	pt.MeanShards, pt.PeakShards, pt.ScaleUps, pt.ScaleDowns = w.shardTimeline(start, end, startActive)

	// Price the day with fractional VM occupancy: a static tier pays K
	// VMs around the clock, the autoscaled tier pays its time-averaged
	// size. The remote VM is always on.
	pricing := opscost.DefaultPricing()
	pricing.VMs = 0
	var perAccess float64
	if pt.Visits > 0 {
		perAccess = float64(pt.BorderBytes) / float64(pt.Visits)
	}
	wl := opscost.PaperWorkload(perAccess)
	traffic := opscost.Estimate(wl, pricing).TotalUSD
	pt.PerUserUSD = (traffic + (pt.MeanShards+1)*pricing.VMPerDay) / float64(wl.DailyUsers)
	return pt, nil
}

// shardTimeline integrates the active shard count over [start, end] from
// the autoscaler's applied decisions (a static world is a constant
// line). Returns the time-weighted mean, the peak, and the event counts.
func (w *World) shardTimeline(start, end time.Time, startActive int) (mean float64, peak, ups, downs int) {
	peak = startActive
	if w.Autoscaler == nil || !end.After(start) {
		return float64(startActive), peak, 0, 0
	}
	prevT, prevK := start, startActive
	var acc float64
	for _, d := range w.Autoscaler.Decisions() {
		if d.Err != nil || d.At.Before(start) || d.At.After(end) {
			continue
		}
		acc += d.At.Sub(prevT).Seconds() * float64(prevK)
		prevT, prevK = d.At, d.To
		if d.To > peak {
			peak = d.To
		}
		if d.To > d.From {
			ups++
		} else {
			downs++
		}
	}
	acc += end.Sub(prevT).Seconds() * float64(prevK)
	return acc / end.Sub(start).Seconds(), peak, ups, downs
}

func autoscaleRow(p *AutoscalePoint) string {
	return fmt.Sprintf("  %-9s %-11s %-7d %-10s %-10s %-11d %-7s %-7d %-5d %-6d %-10s %d\n",
		p.Schedule, p.Mode, p.Visits,
		obs.FormatSeconds(p.PLT.Mean), obs.FormatSeconds(p.P99PLT),
		p.BorderBytes/1024,
		fmt.Sprintf("%.2f", p.MeanShards), p.PeakShards, p.ScaleUps, p.ScaleDowns,
		fmt.Sprintf("$%.4f", p.PerUserUSD), p.Failed)
}

// autoscaleVariants is the provisioning axis each schedule runs under.
func autoscaleVariants() []struct {
	Label   string
	Shards  int
	Initial int // 0 = static tier, no controller
} {
	return []struct {
		Label   string
		Shards  int
		Initial int
	}{
		{"static-1", 1, 0},
		{fmt.Sprintf("static-%d", autoscaleShards), autoscaleShards, 0},
		{"autoscaled", autoscaleShards, 1},
	}
}

// autoscalePlan renders both schedules under each provisioning mode:
// one world per (schedule, provisioning mode).
func autoscalePlan(q Quality) figurePlan {
	schedules := []struct {
		name   string
		phases []LoadPhase
	}{
		{"flash", FlashCrowdSchedule(q)},
		{"diurnal", DiurnalSchedule(q)},
	}
	var cells []cell
	for _, sc := range schedules {
		load := 0
		for _, ph := range sc.phases {
			load += ph.Clients * ph.Rounds
		}
		for _, v := range autoscaleVariants() {
			cells = append(cells, worldCell(fmt.Sprintf("%s %s", sc.name, v.Label), 100+load+v.Shards,
				autoscaleCellConfig(0, v.Shards, v.Initial), func(w *World) (cellResult, error) {
					p, err := w.MeasureAutoscale(sc.name, sc.phases)
					if err != nil {
						return cellResult{}, err
					}
					return cellResult{Row: autoscaleRow(p), Values: []namedValue{
						{Name: "p99-plt", Value: p.P99PLT, Unit: "s"},
						{Name: "avg-shards", Value: p.MeanShards, Unit: ""},
						{Name: "per-user", Value: p.PerUserUSD, Unit: ""}}}, nil
				}))
		}
	}
	return figurePlan{
		Name:  "autoscale",
		Title: "Autoscaled domestic tier — metrics-driven shard scaling",
		Header: "Autoscaled domestic tier — metrics-driven shard scaling under time-varying load (ScholarCloud, continuous browsing)\n" +
			fmt.Sprintf("  %-9s %-11s %-7s %-10s %-10s %-11s %-7s %-7s %-5s %-6s %-10s %s\n",
				"schedule", "mode", "visits", "mean-PLT", "p99-PLT", "border-KB", "avg-K", "peak-K", "ups", "downs", "$/user", "failed"),
		Cells: cells,
	}
}
