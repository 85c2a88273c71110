package experiments

import (
	"fmt"
	"testing"

	"scholarcloud/internal/httpsim"
)

// TestShardedTierFetchesSharedObjectOnceAcrossBorder is the tentpole's
// regression guarantee for cache peering: when every shard of a K-shard
// tier needs the same static object at once, exactly one fetch crosses
// the border — the key's owner fetches, the other K-1 shards fill from
// the owner — and a second wave is served tier-wide with zero border
// traffic.
func TestShardedTierFetchesSharedObjectOnceAcrossBorder(t *testing.T) {
	const shards = 4
	w := newTestWorld(t, Config{CacheMB: 16, Shards: shards, ShardSiblingFetch: true, ShardRehashOnDeath: true})

	fetchFromEveryShard := func() error {
		wg := w.Env.NewWaitGroup()
		errs := make([]error, shards)
		for i := 0; i < shards; i++ {
			i := i
			wg.Add(1)
			w.Env.Spawn.Go(func() {
				defer wg.Done()
				conn, err := w.Client.DialTCP(w.ShardAddrs[i])
				if err != nil {
					errs[i] = err
					return
				}
				defer conn.Close()
				resp, err := httpsim.NewClientConn(conn).RoundTrip(&httpsim.Request{
					Method: "GET",
					Target: "https://scholar.google.com/static/logo.png",
					Host:   "scholar.google.com",
					Header: map[string]string{},
				})
				if err != nil {
					errs[i] = err
					return
				}
				if resp.StatusCode != 200 || len(resp.Body) == 0 {
					errs[i] = fmt.Errorf("shard %d: %d (%d bytes)", i, resp.StatusCode, len(resp.Body))
				}
			})
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	err := w.Run(func() error {
		if err := fetchFromEveryShard(); err != nil {
			return err
		}
		st := w.tierCacheStats()
		if st.BorderFetches != 1 {
			t.Errorf("first wave crossed the border %d times, want exactly 1", st.BorderFetches)
		}
		if st.SiblingFetches != shards-1 {
			t.Errorf("sibling fetches = %d, want %d (one per non-owner)", st.SiblingFetches, shards-1)
		}
		if st.SiblingErrors != 0 {
			t.Errorf("sibling errors = %d, want 0", st.SiblingErrors)
		}

		// Streams, not link bytes: every shard's pool health-probes its
		// remote across the same link.
		before := borderStreams(w)
		if err := fetchFromEveryShard(); err != nil {
			return err
		}
		if after := borderStreams(w); after != before {
			t.Errorf("second wave crossed the border: %d -> %d tunnel streams", before, after)
		}
		if st := w.tierCacheStats(); st.BorderFetches != 1 {
			t.Errorf("border fetches after the second wave = %d, want still 1", st.BorderFetches)
		}
		if st := w.tierCacheStats(); st.Hits < shards {
			t.Errorf("second wave hits = %d, want >= %d (every shard serves locally)", st.Hits, shards)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardKillRehashesAndRecovers seizes one shard of a four-shard tier
// mid-sweep and checks the coordinated response: the ring reassigns the
// dead shard's key range to survivors, the tier's PAC policy stops
// routing users at it, and visits after the seizure succeed at >= 99%.
func TestShardKillRehashesAndRecovers(t *testing.T) {
	w := NewWorld(shardCellConfig(42, 4, true))
	defer w.Close()

	victimAddr := w.ShardAddrs[1]
	var victimKeys []string
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("https://scholar.google.com:443/cite/%d", i)
		if w.Tier.Ring().Owner(key) == victimAddr {
			victimKeys = append(victimKeys, key)
		}
	}
	if len(victimKeys) == 0 {
		t.Fatal("victim shard owns none of the probe keys; widen the probe")
	}

	res, err := w.MeasureShardKill(12, 3, 1, cacheStressInterval)
	if err != nil {
		t.Fatal(err)
	}
	if res.VisitsAfter == 0 {
		t.Fatal("no visits started after the seizure")
	}
	if res.SuccessAfter() < 0.99 {
		t.Errorf("post-seizure success = %.3f, want >= 0.99 (failed %d of %d)",
			res.SuccessAfter(), res.FailedAfter, res.VisitsAfter)
	}

	if !w.Tier.Ring().IsDown(victimAddr) {
		t.Error("ring does not mark the seized shard down")
	}
	for _, key := range victimKeys {
		if o := w.Tier.Ring().Owner(key); o == victimAddr {
			t.Fatalf("key %q still owned by the dead shard", key)
		}
	}
	for _, addr := range w.Whitelist.Proxies() {
		if addr == victimAddr {
			t.Error("PAC policy still routes users at the seized shard")
		}
	}
}

// TestShardsSweepBorderParity is a miniature of the -fig shards claim:
// a K-shard tier's border traffic stays within ~1.1x of the single-proxy
// deployment, because cache peering keeps each shared object's border
// crossing unique tier-wide.
func TestShardsSweepBorderParity(t *testing.T) {
	measure := func(k int) *ShardsPoint {
		w := NewWorld(shardCellConfig(7, k, false))
		defer w.Close()
		p, err := w.MeasureShards(16, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	one := measure(1)
	four := measure(4)
	if one.Failed > 0 || four.Failed > 0 {
		t.Fatalf("failures: one=%d four=%d", one.Failed, four.Failed)
	}
	// Link bytes include four pools' health probes against one; the
	// fetch count is the peering claim itself.
	if limit := float64(one.BorderBytes) * 1.1; float64(four.BorderBytes) > limit {
		t.Errorf("4-shard border bytes %d exceed 1.1x the 1-shard baseline %d",
			four.BorderBytes, one.BorderBytes)
	}
	if limit := float64(one.BorderFetches) * 1.1; float64(four.BorderFetches) > limit {
		t.Errorf("4-shard border fetches %d exceed 1.1x the 1-shard baseline %d",
			four.BorderFetches, one.BorderFetches)
	}
	if four.SiblingFetches == 0 {
		t.Error("4-shard sweep recorded no sibling fetches")
	}
	if one.SiblingFetches != 0 {
		t.Errorf("single-proxy sweep recorded %d sibling fetches", one.SiblingFetches)
	}
}
