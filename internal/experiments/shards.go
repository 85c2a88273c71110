package experiments

// Sharded-domestic-tier experiment: what happens when the single domestic
// proxy becomes K shards behind the PAC file's client-side assignment.
// Each user hashes onto one shard, so no shard sees every user — but a
// shard that misses on a static object asks the key's owning peer before
// crossing the border, so the tier as a whole still fetches each shared
// object across the border once. The sweep reports what users feel (PLT),
// what the border carries (bytes), and what the tier costs per served
// user at 1/2/4/8 shards; a separate episode seizes one shard mid-sweep
// and checks that its users land on the survivors.

import (
	"fmt"
	"strings"
	"time"

	"scholarcloud/internal/obs"
	"scholarcloud/internal/opscost"
)

// shardSweepClients is the sweep's fixed load. The shard axis is the
// variable under study; 48 clients is enough that every shard of an
// 8-way tier still serves several users.
const shardSweepClients = 48

// shardSweepCounts is the shard axis of the sweep.
var shardSweepCounts = []int{1, 2, 4, 8}

// ShardsPoint is one shard-count cell of the sweep.
type ShardsPoint struct {
	Shards  int
	Clients int
	PLT     obs.Summary
	Failed  int
	// BorderBytes is the traffic the border link carried during the
	// sweep (both directions).
	BorderBytes int64
	// Tier-wide cache activity during the sweep (summed over shards).
	Hits           int64
	SiblingFetches int64
	BorderFetches  int64
	// PerUserUSD prices the tier at the paper's workload (700 daily
	// users, 20 accesses each at the sweep's measured bytes/access)
	// on K domestic VMs plus the remote.
	PerUserUSD float64
}

// MeasureShards runs n concurrent ScholarCloud clients for `rounds`
// continuous-browsing visits (client content caches cleared each round,
// as in MeasureCacheLoad) and reports PLT, border traffic, tier-wide
// cache activity, and the cost per served user at this shard count.
func (w *World) MeasureShards(n, rounds int) (*ShardsPoint, error) {
	borderBefore := w.Border.Stats()
	before := w.Tier.CacheStats()

	p, err := w.measureScalabilityAt(w.ScholarCloudFactory(), n, rounds, cacheStressInterval, true)
	if err != nil {
		return nil, err
	}

	after := w.Tier.CacheStats()
	point := &ShardsPoint{
		Shards:         len(w.ShardAddrs),
		Clients:        n,
		PLT:            p.PLT,
		Failed:         p.Failed,
		BorderBytes:    w.Border.Stats().Bytes - borderBefore.Bytes,
		Hits:           after.Hits - before.Hits,
		SiblingFetches: after.SiblingFetches - before.SiblingFetches,
		BorderFetches:  after.BorderFetches - before.BorderFetches,
	}

	// Price the tier: K domestic VMs plus the one remote, at the paper's
	// population browsing with the sweep's measured per-access border
	// traffic.
	pricing := opscost.DefaultPricing()
	pricing.VMs = point.Shards + 1
	visits := p.PLT.N + p.Failed
	var perAccess float64
	if visits > 0 {
		perAccess = float64(point.BorderBytes) / float64(visits)
	}
	point.PerUserUSD = opscost.Estimate(opscost.PaperWorkload(perAccess), pricing).PerUserUSD
	return point, nil
}

// ShardKillResult classifies a load sweep's visits around a mid-sweep
// shard seizure.
type ShardKillResult struct {
	Shards  int
	Clients int
	Victim  int
	KillAt  time.Duration // offset of the seizure from sweep start
	PLT     obs.Summary

	// Visit/failure counts by when the visit started, relative to the
	// seizure. Unlike a fleet takedown there is no detection window: the
	// tier marks the shard down the instant its listener dies, and
	// the next PAC evaluation routes its users to the survivors.
	VisitsBefore, FailedBefore int
	VisitsAfter, FailedAfter   int

	// SiblingErrors counts peer fetches that failed during the run —
	// mostly requests to the dead owner before the ring rehashed.
	SiblingErrors int64
}

// SuccessAfter is the post-seizure success rate in [0, 1].
func (r *ShardKillResult) SuccessAfter() float64 {
	if r.VisitsAfter == 0 {
		return 1
	}
	return float64(r.VisitsAfter-r.FailedAfter) / float64(r.VisitsAfter)
}

// MeasureShardKill runs n concurrent ScholarCloud clients for `rounds`
// continuous-browsing visits each and seizes domestic shard `victim` at
// killAt. The world must have been built with Cfg.Shards >= 2; the
// victim must not be shard 0 (it hosts the PAC web endpoint, which real
// deployments would serve from every shard or a separate box).
func (w *World) MeasureShardKill(n, rounds, victim int, killAt time.Duration) (*ShardKillResult, error) {
	if len(w.ShardAddrs) < 2 {
		return nil, fmt.Errorf("experiments: world has no shard to seize (Config.Shards < 2)")
	}
	if victim <= 0 || victim >= len(w.ShardAddrs) {
		return nil, fmt.Errorf("experiments: shard-kill victim %d out of range (want 1..%d)", victim, len(w.ShardAddrs)-1)
	}
	res := &ShardKillResult{
		Shards:  len(w.ShardAddrs),
		Clients: n,
		Victim:  victim,
		KillAt:  killAt,
	}
	siblingErrBefore := w.Tier.CacheStats().SiblingErrors
	var visits []visitResult
	err := w.Run(func() error {
		w.Env.Spawn.Go(func() {
			w.Env.Clock.Sleep(killAt)
			w.KillShard(victim)
		})
		visits = w.staggeredClients(w.ScholarCloudFactory(), n, rounds, cacheStressInterval, true)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.SiblingErrors = w.Tier.CacheStats().SiblingErrors - siblingErrBefore
	for _, v := range visits {
		if v.start < killAt {
			res.VisitsBefore++
			if v.failed {
				res.FailedBefore++
			}
		} else {
			res.VisitsAfter++
			if v.failed {
				res.FailedAfter++
			}
		}
	}
	res.PLT = obs.SummarizeDurations(successfulPLTs(visits))
	return res, nil
}

func shardsRow(p *ShardsPoint) string {
	return fmt.Sprintf("  %-8d %-10d %-10s %-10s %-11d %-8d %-9d %-9d %-10s %d\n",
		p.Shards, p.Clients,
		obs.FormatSeconds(p.PLT.Mean), obs.FormatSeconds(p.PLT.P95),
		p.BorderBytes/1024, p.Hits, p.SiblingFetches, p.BorderFetches,
		fmt.Sprintf("$%.4f", p.PerUserUSD), p.Failed)
}

func shardKillSection(res *ShardKillResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nShard seized during load (%d clients, %d shards; shard %d seized at t=%s)\n",
		res.Clients, res.Shards, res.Victim, obs.FormatSeconds(res.KillAt.Seconds()))
	fmt.Fprintf(&b, "  %-28s %-8s %s\n", "visits started", "count", "failed")
	fmt.Fprintf(&b, "  %-28s %-8d %d\n", "before seizure", res.VisitsBefore, res.FailedBefore)
	fmt.Fprintf(&b, "  %-28s %-8d %d\n", "after seizure", res.VisitsAfter, res.FailedAfter)
	fmt.Fprintf(&b, "  %-28s %.1f%%\n", "post-seizure success", 100*res.SuccessAfter())
	fmt.Fprintf(&b, "  %-28s %d\n", "sibling fetch errors", res.SiblingErrors)
	if res.SuccessAfter() < 0.99 {
		fmt.Fprintf(&b, "  WARNING: post-seizure success below 99%%\n")
	}
	return b.String()
}

// shardCellConfig builds the sweep's world configuration for k shards.
// The cache is always on (the tier requires it); resilience rides along
// on the seizure episode so in-flight visits retry onto survivors.
// worldCell overrides the seed with the job's.
func shardCellConfig(seed uint64, k int, resilience bool) Config {
	return Config{
		Seed:               seed,
		CacheMB:            cacheSweepMB,
		Shards:             k,
		ShardSiblingFetch:  k > 1,
		ShardRehashOnDeath: k > 1,
		Resilience:         resilience,
		RunGuard:           sweepRunGuard,
	}
}

// shardsPlan renders the 1/2/4/8-shard sweep at a fixed load, then the
// shard-seizure episode: one world per shard count plus the seizure.
func shardsPlan(q Quality) figurePlan {
	var cells []cell
	for _, k := range shardSweepCounts {
		cells = append(cells, worldCell(fmt.Sprintf("shards=%d n=%d", k, shardSweepClients), 100+shardSweepClients+k,
			shardCellConfig(0, k, false), func(w *World) (cellResult, error) {
				p, err := w.MeasureShards(shardSweepClients, q.ScaleRounds)
				if err != nil {
					return cellResult{}, err
				}
				return cellResult{Row: shardsRow(p), Values: []namedValue{
					{Name: "plt", Value: p.PLT.Mean, Unit: "s"},
					{Name: "border-kb", Value: float64(p.BorderBytes) / 1024, Unit: "KB"},
					{Name: "per-user", Value: p.PerUserUSD, Unit: ""}}}, nil
			}))
	}
	cells = append(cells, worldCell("shard-kill", 100+shardSweepClients,
		shardCellConfig(0, 4, true), func(w *World) (cellResult, error) {
			res, err := w.MeasureShardKill(shardSweepClients, q.ScaleRounds+1, 1, cacheStressInterval)
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{Row: shardKillSection(res), Values: []namedValue{
				{Name: "success-after", Value: 100 * res.SuccessAfter(), Unit: "%"}}}, nil
		}))
	return figurePlan{
		Name:  "shards",
		Title: "Sharded domestic tier — PAC-assigned shards with cache peering",
		Header: "Sharded domestic tier — PAC-assigned shards with cache peering (ScholarCloud, continuous browsing)\n" +
			fmt.Sprintf("  %-8s %-10s %-10s %-10s %-11s %-8s %-9s %-9s %-10s %s\n",
				"shards", "clients", "mean-PLT", "p95-PLT", "border-KB", "hits", "sibling", "border-f", "$/user", "failed"),
		Cells: cells,
	}
}
