package experiments

// Shared-cache experiment: what the domestic proxy's content cache
// (internal/cache) buys under concurrent load. Every one of N clients
// loads the same Scholar page, so without a cache the border link (and
// the GFW) carries the same static objects N times; with the cache only
// the first fetch of each object crosses the border and concurrent
// identical misses coalesce into one upstream fetch. The sweep reports
// both what users feel (PLT) and what the border link carries (bytes).

import (
	"fmt"
	"time"

	"scholarcloud/internal/obs"
)

// cacheStressInterval is the cache sweep's visit cadence. Like the fleet
// sweep, continuous browsing (20 s per visit, client content caches
// cleared each round) is what makes the shared resources contended; at
// Fig. 7's 60 s think time the border link idles either way.
const cacheStressInterval = 20 * time.Second

// cacheSweepMB is the cache byte budget used by the sweep's cache-on rows.
const cacheSweepMB = 64

// CachePoint is one (clients, cache on/off) cell of the sweep.
type CachePoint struct {
	Clients int
	CacheMB int // 0 = cache off
	PLT     obs.Summary
	Failed  int
	// BorderBytes is the traffic the border link carried during the sweep
	// (both directions: requests, responses, ACKs, handshakes).
	BorderBytes int64
	// Cache activity during the sweep (all zero with the cache off).
	Hits, Misses, Coalesced, Revalidated int64
}

// MeasureCacheLoad runs n concurrent ScholarCloud clients for `rounds`
// continuous-browsing visits (client content caches cleared before each
// visit, so proxy-side caching is the only dedup in play) and reports
// PLT together with the border-link traffic the sweep generated.
func (w *World) MeasureCacheLoad(n, rounds int) (*CachePoint, error) {
	borderBefore := w.Border.Stats()
	var before struct{ hits, misses, coalesced, revalidated int64 }
	if w.Cache != nil {
		s := w.Cache.Snapshot()
		before.hits, before.misses = s.Hits, s.Misses
		before.coalesced, before.revalidated = s.Coalesced, s.Revalidated
	}

	p, err := w.measureScalabilityAt(w.ScholarCloudFactory(), n, rounds, cacheStressInterval, true)
	if err != nil {
		return nil, err
	}

	point := &CachePoint{
		Clients:     n,
		CacheMB:     w.Cfg.CacheMB,
		PLT:         p.PLT,
		Failed:      p.Failed,
		BorderBytes: w.Border.Stats().Bytes - borderBefore.Bytes,
	}
	if w.Cache != nil {
		s := w.Cache.Snapshot()
		point.Hits = s.Hits - before.hits
		point.Misses = s.Misses - before.misses
		point.Coalesced = s.Coalesced - before.coalesced
		point.Revalidated = s.Revalidated - before.revalidated
	}
	return point, nil
}

// cacheSweepLoads is the sweep's client axis: light, the paper-scale
// deployment, and the heavy end where the shared border path saturates.
var cacheSweepLoads = []int{15, 60, 120}

func cacheLabel(mb int) string {
	if mb == 0 {
		return "off"
	}
	return fmt.Sprintf("%d MB", mb)
}

func cacheRow(p *CachePoint) string {
	return fmt.Sprintf("  %-10d %-8s %-10s %-10s %-11d %-8d %-8d %-10d %d\n",
		p.Clients, cacheLabel(p.CacheMB),
		obs.FormatSeconds(p.PLT.Mean), obs.FormatSeconds(p.PLT.P95),
		p.BorderBytes/1024, p.Hits, p.Misses, p.Coalesced, p.Failed)
}

// cachePlan renders the shared-cache sweep, cache off and on side by
// side: one world per (load, cache) cell.
func cachePlan(q Quality) figurePlan {
	var cells []cell
	for _, load := range cacheSweepLoads {
		for _, mb := range []int{0, cacheSweepMB} {
			cells = append(cells, worldCell(fmt.Sprintf("cache=%s n=%d", cacheLabel(mb), load), 100+load,
				Config{CacheMB: mb}, func(w *World) (cellResult, error) {
					p, err := w.MeasureCacheLoad(load, q.ScaleRounds)
					if err != nil {
						return cellResult{}, err
					}
					return cellResult{Row: cacheRow(p), Values: []namedValue{
						{Name: "plt", Value: p.PLT.Mean, Unit: "s"},
						{Name: "border-kb", Value: float64(p.BorderBytes) / 1024, Unit: "KB"}}}, nil
				}))
		}
	}
	return figurePlan{
		Name:  "cache",
		Title: "Shared cache — domestic-proxy content cache",
		Header: "Shared cache — domestic-proxy content cache (ScholarCloud, continuous browsing)\n" +
			fmt.Sprintf("  %-10s %-8s %-10s %-10s %-11s %-8s %-8s %-10s %s\n",
				"clients", "cache", "mean-PLT", "p95-PLT", "border-KB", "hits", "misses", "coalesced", "failed"),
		Cells: cells,
	}
}
