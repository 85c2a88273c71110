package experiments

import (
	"testing"
	"time"

	"scholarcloud/internal/httpsim"
)

// TestCacheHitGeneratesZeroBorderTraffic is the tentpole's regression
// guarantee: serving a cached object must not open a tunnel stream (and
// therefore puts nothing of the user's in front of the GFW). The witness
// is the stream count on both proxies, not the link counters: the border
// pool's health probes cross the same link on their own clock.
func TestCacheHitGeneratesZeroBorderTraffic(t *testing.T) {
	w := newTestWorld(t, Config{CacheMB: 16})
	err := w.Run(func() error {
		conn, err := w.Client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		cc := httpsim.NewClientConn(conn)
		req := func() (*httpsim.Response, error) {
			return cc.RoundTrip(&httpsim.Request{
				Method: "GET",
				Target: "https://scholar.google.com/static/logo.png",
				Host:   "scholar.google.com",
				Header: map[string]string{},
			})
		}

		// Miss: fetched across the border and stored.
		first, err := req()
		if err != nil {
			return err
		}
		if first.StatusCode != 200 || len(first.Body) == 0 {
			t.Fatalf("miss response: %d (%d bytes)", first.StatusCode, len(first.Body))
		}
		before, remoteBefore := borderStreams(w), w.Remote.Stats().StreamsOpened
		second, err := req()
		if err != nil {
			return err
		}
		after, remoteAfter := borderStreams(w), w.Remote.Stats().StreamsOpened

		if second.StatusCode != 200 || string(second.Body) != string(first.Body) {
			t.Fatalf("hit response: %d (%d bytes)", second.StatusCode, len(second.Body))
		}
		if after != before || remoteAfter != remoteBefore {
			t.Fatalf("cache hit crossed the border: domestic streams %d -> %d, remote streams %d -> %d",
				before, after, remoteBefore, remoteAfter)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Cache.Snapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit + 1 miss", st)
	}
}

// TestGatewayModePreservesFirstVisitSemantics checks that the shared
// cache does not flatten per-user state: the main document sets a cookie
// (never cacheable), so each new browser behind the caching proxy still
// performs its own first-visit account recording, while the page's
// static subresources are served from the shared cache.
func TestGatewayModePreservesFirstVisitSemantics(t *testing.T) {
	w := newTestWorld(t, Config{CacheMB: 16})
	m := w.ScholarCloud(w.Client)
	defer m.Close()

	var visits []*httpsim.VisitStats
	err := w.Run(func() error {
		for i := 0; i < 2; i++ {
			browser := httpsim.NewBrowser(m, w.Env.Clock)
			visits = append(visits, browser.Visit(scholarURL))
			w.Env.Clock.Sleep(time.Minute)
			// Revisit with a warm cookie jar: no account recording.
			visits = append(visits, browser.Visit(scholarURL))
			w.Env.Clock.Sleep(time.Minute)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range visits {
		if st.Failed {
			t.Fatalf("visit %d failed: %v", i, st.Err)
		}
	}
	if !visits[0].AccountRecorded || !visits[2].AccountRecorded {
		t.Error("first visits skipped account recording behind the cache")
	}
	if visits[1].AccountRecorded || visits[3].AccountRecorded {
		t.Error("revisit re-recorded the account")
	}
	if got := w.Origin.AccountRecordings(); got != 2 {
		t.Errorf("account recordings = %d, want 2 (one per browser)", got)
	}
	if st := w.Cache.Snapshot(); st.Hits == 0 {
		t.Errorf("shared cache saw no hits across browsers: %+v", st)
	}
}

// TestCacheLoadSweepSeparation is a miniature of the -fig cache claim:
// at equal load, cache-on must beat cache-off on both PLT and border
// bytes.
func TestCacheLoadSweepSeparation(t *testing.T) {
	measure := func(mb int) *CachePoint {
		w := NewWorld(Config{Seed: 11, CacheMB: mb})
		defer w.Close()
		p, err := w.MeasureCacheLoad(10, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	off := measure(0)
	on := measure(cacheSweepMB)
	if off.Failed > 0 || on.Failed > 0 {
		t.Fatalf("failures: off=%d on=%d", off.Failed, on.Failed)
	}
	if on.BorderBytes >= off.BorderBytes {
		t.Errorf("border bytes with cache (%d) not below without (%d)", on.BorderBytes, off.BorderBytes)
	}
	if on.PLT.Mean >= off.PLT.Mean {
		t.Errorf("mean PLT with cache (%v) not below without (%v)", on.PLT.Mean, off.PLT.Mean)
	}
	if on.Hits == 0 || on.Misses == 0 {
		t.Errorf("cache-on sweep recorded no activity: %+v", on)
	}
	if off.Hits != 0 || off.Coalesced != 0 {
		t.Errorf("cache-off sweep reported cache activity: %+v", off)
	}
}
