package experiments

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"scholarcloud/internal/cache"
	"scholarcloud/internal/httpsim"
)

// TestAutoscaleFlashCrowdWalksFrontier is the subsystem's acceptance
// gate: under a flash-crowd schedule the autoscaled tier must serve
// >= 99% of visits, keep p99 PLT within 1.5x of a statically
// over-provisioned tier, cost strictly less per user than it, and reach
// its peak without stampeding the border (<= 1.1x the bytes a single
// always-on proxy moves for the same schedule).
func TestAutoscaleFlashCrowdWalksFrontier(t *testing.T) {
	const seed = 2017
	phases := FlashCrowdSchedule(Quick())
	run := func(k, initial int) *AutoscalePoint {
		t.Helper()
		w := NewWorld(autoscaleCellConfig(seed, k, initial))
		defer w.Close()
		p, err := w.MeasureAutoscale("flash", phases)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	single := run(1, 0)
	static := run(autoscaleShards, 0)
	scaled := run(autoscaleShards, 1)

	if succ := float64(scaled.Visits-scaled.Failed) / float64(scaled.Visits); succ < 0.99 {
		t.Errorf("autoscaled success rate = %.3f, want >= 0.99", succ)
	}
	if scaled.ScaleUps == 0 {
		t.Error("flash crowd triggered no scale-up")
	}
	if scaled.PeakShards <= 1 {
		t.Errorf("autoscaled peak = %d shards, want > 1", scaled.PeakShards)
	}
	if scaled.P99PLT > 1.5*static.P99PLT {
		t.Errorf("autoscaled p99 PLT = %.2fs, want <= 1.5x the static-%d tier's %.2fs",
			scaled.P99PLT, autoscaleShards, static.P99PLT)
	}
	if scaled.PerUserUSD >= static.PerUserUSD {
		t.Errorf("autoscaled $/user = %.4f, want strictly below the static-%d tier's %.4f",
			scaled.PerUserUSD, autoscaleShards, static.PerUserUSD)
	}
	// Link bytes include every active shard's pool probes, so the tier
	// pays a few percent over the single proxy before any refetch.
	if limit := int64(1.1 * float64(single.BorderBytes)); scaled.BorderBytes > limit {
		t.Errorf("autoscaled border bytes = %d, want <= 1.1x the single-proxy %d",
			scaled.BorderBytes, single.BorderBytes)
	}
}

// TestAdmitShardPreseedsWithoutBorderStampede checks the warm-up
// contract: a standby joining the ring pulls every key it is about to
// own from the current owners over the sibling path: no cache fetch and
// no tunnel stream crosses the border for it. (Raw link bytes are the
// wrong witness — every shard's pool health-probes its remote across the
// same link.)
func TestAdmitShardPreseedsWithoutBorderStampede(t *testing.T) {
	w := NewWorld(Config{
		Seed:               11,
		CacheMB:            cacheSweepMB,
		Shards:             3,
		ShardSiblingFetch:  true,
		ShardRehashOnDeath: true,
		AutoscaleInitial:   2,
		AutoscaleInterval:  time.Hour, // controller stays idle for this test
		RunGuard:           sweepRunGuard,
	})
	defer w.Close()
	if got := len(w.Tier.Ring().Up()); got != 2 {
		t.Fatalf("active shards at start = %d, want 2 (shard 2 parked as standby)", got)
	}

	// Populate the active shards' caches.
	f := w.ScholarCloudFactory()
	if _, err := w.runStaggeredClients(f, 12, 2, cacheStressInterval, true); err != nil {
		t.Fatal(err)
	}

	before := w.Obs.Snapshot()
	var preseeded int
	if err := w.Run(func() error {
		preseeded = w.Tier.Admit(2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if preseeded == 0 {
		t.Fatal("warm-up pre-seeded no keys")
	}
	delta := w.Obs.Snapshot().Sub(before)
	for _, name := range []string{"cache.border_fetches", "core.domestic.streams"} {
		if n := delta.Counters[name]; n != 0 {
			t.Errorf("warm-up moved %s by %d, want 0: pre-seeding must stay on the sibling path", name, n)
		}
	}
	if n := delta.Counters["cache.sibling_fetches"]; n == 0 {
		t.Error("warm-up recorded no sibling fetches")
	}
	if got := len(w.Tier.Ring().Up()); got != 3 {
		t.Errorf("active shards after admit = %d, want 3", got)
	}
	if got := len(w.ShardCaches[2].Keys()); got < preseeded {
		t.Errorf("joiner holds %d fresh keys, want >= the %d pre-seeded", got, preseeded)
	}
}

// TestRetireShardDrainsWithoutBorderRefetch retires a shard in the
// middle of a browsing sweep: in-flight sessions must finish (the
// listener stays open), and afterwards every fresh key the leaver held
// must be a warm hit at its new owner — served without touching the
// border.
func TestRetireShardDrainsWithoutBorderRefetch(t *testing.T) {
	w := NewWorld(shardCellConfig(13, 3, false))
	defer w.Close()
	f := w.ScholarCloudFactory()
	if _, err := w.runStaggeredClients(f, 12, 2, cacheStressInterval, true); err != nil {
		t.Fatal(err)
	}
	if len(w.ShardCaches[2].Keys()) == 0 {
		t.Fatal("shard 2 holds no keys after the populate phase")
	}

	const clients, rounds = 12, 3
	var mu sync.Mutex
	visits, failed, handed := 0, 0, 0
	if err := w.Run(func() error {
		w.Env.Spawn.Go(func() {
			w.Env.Clock.Sleep(30 * time.Second)
			handed = w.Tier.Retire(2)
		})
		wg := w.Env.NewWaitGroup()
		for i := 0; i < clients; i++ {
			i := i
			wg.Add(1)
			w.Env.Spawn.Go(func() {
				defer wg.Done()
				h := w.newScaleClient(i)
				method := f.New(h)
				defer method.Close()
				if err := prepare(method); err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					return
				}
				browser := w.newBrowser(method)
				w.Env.Clock.Sleep(time.Duration(i) * cacheStressInterval / clients)
				for r := 0; r < rounds; r++ {
					browser.ClearContentCache()
					st := browser.Visit(f.URL)
					mu.Lock()
					visits++
					if st.Failed {
						failed++
					}
					mu.Unlock()
					if sleep := cacheStressInterval - st.PLT; sleep > 0 {
						w.Env.Clock.Sleep(sleep)
					}
				}
			})
		}
		wg.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if failed > 0 {
		t.Errorf("%d of %d visits failed across the retirement; draining must let sessions finish", failed, visits)
	}
	if handed == 0 {
		t.Error("retirement handed no keys to the survivors")
	}
	if !w.Tier.Ring().IsDown(w.ShardAddrs[2]) {
		t.Error("shard 2 still live after retirement")
	}

	// Every key still fresh at the leaver was fresh when it retired, so
	// the drain must have copied it: its new owner serves it as a cache
	// hit with the border fetcher refusing to fire.
	leaverKeys := w.ShardCaches[2].Keys()
	if len(leaverKeys) == 0 {
		t.Fatal("no fresh keys left at the leaver to verify the handoff with")
	}
	if err := w.Run(func() error {
		for _, key := range leaverKeys {
			oi := slices.Index(w.ShardAddrs, w.Tier.Ring().Owner(key))
			if oi < 0 || oi == 2 {
				t.Fatalf("key %q still owned by the retired shard", key)
			}
			resp, outcome, err := w.ShardCaches[oi].FetchLocal(key, func(map[string]string) (*httpsim.Response, error) {
				return nil, errors.New("the border fetcher must not fire")
			})
			if err != nil || resp == nil || outcome != cache.Hit {
				t.Errorf("key %q at shard %d: outcome %v err %v, want a warm hit after the drain", key, oi, outcome, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
