package experiments

import (
	"strings"
	"testing"
	"time"

	"scholarcloud/internal/gfw"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/tunnel"
)

// newTestWorld builds a world with a small seed; tests share it where
// possible because construction starts a dozen servers.
func newTestWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	w := NewWorld(cfg)
	t.Cleanup(w.Close)
	return w
}

// borderStreams counts the tunnel streams the world's domestic shards
// have opened across the border — what a cache hit or a sibling transfer
// must not add to. Raw link counters would also see the border pools'
// health probes.
func borderStreams(w *World) (n int64) {
	for _, d := range w.ShardDomestics {
		n += d.Stats().Streams
	}
	return n
}

func visitOnce(t *testing.T, w *World, m tunnel.Method, url string) *httpsim.VisitStats {
	t.Helper()
	var stats *httpsim.VisitStats
	err := w.Run(func() error {
		browser := httpsim.NewBrowser(m, w.Env.Clock)
		stats = browser.Visit(url)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestDirectAccessToScholarIsBlocked(t *testing.T) {
	w := newTestWorld(t, Config{})
	st := visitOnce(t, w, w.Direct(w.Client), scholarURL)
	if !st.Failed {
		t.Fatal("direct access to scholar.google.com succeeded under censorship")
	}
}

func TestDirectAccessToUnblockedMirrorWorks(t *testing.T) {
	w := newTestWorld(t, Config{})
	st := visitOnce(t, w, w.Direct(w.Client), mirrorURL)
	if st.Failed {
		t.Fatalf("direct access to the unblocked mirror failed: %v", st.Err)
	}
	if st.PLT <= 0 || st.PLT > 5*time.Second {
		t.Errorf("mirror PLT = %v", st.PLT)
	}
}

func TestNativeVPNReachesScholar(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.NativeVPN(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if st.Failed {
		t.Fatalf("native VPN visit failed: %v", st.Err)
	}
	if !st.AccountRecorded || st.Redirects != 1 {
		t.Errorf("visit stats = %+v", st)
	}
}

func TestL2TPVariantReachesScholar(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.NativeVPNL2TP(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if st.Failed {
		t.Fatalf("L2TP visit failed: %v", st.Err)
	}
}

func TestOpenVPNReachesScholar(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.OpenVPN(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if st.Failed {
		t.Fatalf("OpenVPN visit failed: %v", st.Err)
	}
}

func TestShadowsocksReachesScholar(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.Shadowsocks(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if st.Failed {
		t.Fatalf("Shadowsocks visit failed: %v", st.Err)
	}
	if got := m.Stats().AuthConns; got != 1 {
		t.Errorf("auth connections = %d, want 1 (TCP-1)", got)
	}
}

func TestTorReachesScholar(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.Tor(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if st.Failed {
		t.Fatalf("Tor visit failed: %v", st.Err)
	}
	if m.CircuitBuildTime <= 0 {
		t.Error("circuit build time not recorded")
	}
	if st.PLT < 2*time.Second {
		t.Errorf("Tor first-time PLT = %v, implausibly fast for 3 hops + meek", st.PLT)
	}
}

func TestScholarCloudReachesScholar(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.ScholarCloud(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if st.Failed {
		t.Fatalf("ScholarCloud visit failed: %v", st.Err)
	}
	if w.Remote.Stats().StreamsOpened == 0 {
		t.Error("no streams crossed the blinded tunnel")
	}
	if w.Domestic.Stats().Requests == 0 {
		t.Error("domestic proxy saw no requests")
	}
}

func TestScholarCloudSubsequentVisitFaster(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.ScholarCloud(w.Client)
	defer m.Close()
	var first, second *httpsim.VisitStats
	err := w.Run(func() error {
		browser := httpsim.NewBrowser(m, w.Env.Clock)
		first = browser.Visit(scholarURL)
		w.Env.Clock.Sleep(visitInterval)
		second = browser.Visit(scholarURL)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed || second.Failed {
		t.Fatalf("visits failed: %v / %v", first.Err, second.Err)
	}
	if second.PLT >= first.PLT {
		t.Errorf("subsequent PLT %v not faster than first %v", second.PLT, first.PLT)
	}
}

func TestScholarCloudRefusesNonWhitelisted(t *testing.T) {
	w := newTestWorld(t, Config{})
	err := w.Run(func() error {
		// Dial the domestic proxy directly and CONNECT to a host outside
		// the whitelist.
		conn, err := w.Client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.Write([]byte("CONNECT www.baidu.com:443 HTTP/1.1\r\nHost: www.baidu.com:443\r\n\r\n"))
		buf := make([]byte, 256)
		n, err := conn.Read(buf)
		if err != nil {
			return err
		}
		if !strings.Contains(string(buf[:n]), "403") {
			t.Errorf("proxy response to off-whitelist CONNECT: %q", buf[:n])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPACServedByDomesticProxy(t *testing.T) {
	w := newTestWorld(t, Config{})
	err := w.Run(func() error {
		conn, err := w.Client.DialTCP("101.6.6.6:8080")
		if err != nil {
			return err
		}
		defer conn.Close()
		cc := httpsim.NewClientConn(conn)
		resp, err := cc.RoundTrip(&httpsim.Request{
			Method: "GET", Target: "/pac", Host: "proxy.thucloud.com",
			Header: map[string]string{},
		})
		if err != nil {
			return err
		}
		body := string(resp.Body)
		if !strings.Contains(body, "FindProxyForURL") || !strings.Contains(body, "scholar.google.com") {
			t.Errorf("PAC body = %q", body)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGFWProbesScholarCloudWithoutConfirming(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.ScholarCloud(w.Client)
	defer m.Close()
	if st := visitOnce(t, w, m, scholarURL); st.Failed {
		t.Fatalf("visit failed: %v", st.Err)
	}
	// Let the prober fire.
	if err := w.Run(func() error { w.Env.Clock.Sleep(30 * time.Second); return nil }); err != nil {
		t.Fatal(err)
	}
	st := w.GFW.Stats()
	if st.ProbesLaunched == 0 {
		t.Error("the GFW never probed the blinded tunnel")
	}
	for _, ep := range w.GFW.ConfirmedServers() {
		if strings.HasPrefix(ep, "198.51.100.7:") {
			t.Error("ScholarCloud's remote proxy was confirmed by probing")
		}
	}
}

func TestGFWConfirmsShadowsocksServer(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.Shadowsocks(w.Client)
	defer m.Close()
	if st := visitOnce(t, w, m, scholarURL); st.Failed {
		t.Fatalf("visit failed: %v", st.Err)
	}
	if err := w.Run(func() error { w.Env.Clock.Sleep(60 * time.Second); return nil }); err != nil {
		t.Fatal(err)
	}
	confirmed := false
	for _, ep := range w.GFW.ConfirmedServers() {
		if ep == "198.51.100.12:8388" {
			confirmed = true
		}
	}
	if !confirmed {
		t.Errorf("Shadowsocks server not confirmed; confirmed set = %v, stats = %+v",
			w.GFW.ConfirmedServers(), w.GFW.Stats())
	}
}

func TestBlindingRotationKeepsWorking(t *testing.T) {
	w := newTestWorld(t, Config{})
	m := w.ScholarCloud(w.Client)
	defer m.Close()
	if st := visitOnce(t, w, m, scholarURL); st.Failed {
		t.Fatalf("epoch 0 visit failed: %v", st.Err)
	}
	w.RotateBlinding(1)
	if st := visitOnce(t, w, m, scholarURL); st.Failed {
		t.Fatalf("epoch 1 visit failed: %v", st.Err)
	}
	w.RotateBlinding(2)
	if st := visitOnce(t, w, m, scholarURL); st.Failed {
		t.Fatalf("epoch 2 visit failed: %v", st.Err)
	}
}

func TestMismatchedEpochFailsClosed(t *testing.T) {
	w := newTestWorld(t, Config{})
	// Rotate only the domestic side: the remote cannot decode the carrier
	// and must drop it (fail closed, never fall back to cleartext).
	w.Domestic.Rotate(9)
	m := w.ScholarCloud(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if !st.Failed {
		t.Error("visit succeeded across mismatched blinding epochs")
	}
}

func TestDomesticPenalty(t *testing.T) {
	w := newTestWorld(t, Config{})
	direct, viaVPN, err := w.DomesticPenalty()
	if err != nil {
		t.Fatal(err)
	}
	// The domestic site is milliseconds away directly, but a full tunnel
	// drags the traffic across the border twice.
	if viaVPN < 4*direct {
		t.Errorf("domestic penalty too small: direct %v, via VPN %v", direct, viaVPN)
	}
}

func TestClientHostFactoryDistinctIPs(t *testing.T) {
	w := newTestWorld(t, Config{})
	a := w.NewClientHost()
	b := w.NewClientHost()
	if a.IP() == b.IP() {
		t.Error("client hosts share an IP")
	}
}

var _ = netsim.MSS // keep the import for documentation references

func TestNoBlindingAblationGetsKeywordFiltered(t *testing.T) {
	// Without message blinding, the inter-proxy tunnel's stream metadata
	// crosses the border in cleartext; the GFW's raw keyword filter sees
	// "scholar.google.com" and resets the carrier — the mechanism that
	// makes blinding necessary (§3).
	w := newTestWorld(t, Config{ScholarCloudNoBlinding: true})
	m := w.ScholarCloud(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if !st.Failed {
		t.Fatal("unblinded ScholarCloud tunnel survived the keyword filter")
	}
	if w.GFW.Stats().KeywordResets == 0 {
		t.Error("no keyword resets recorded against the cleartext tunnel")
	}
}

func TestBlindingDefeatsKeywordFilter(t *testing.T) {
	// The identical flow with blinding enabled sails through.
	w := newTestWorld(t, Config{})
	m := w.ScholarCloud(w.Client)
	defer m.Close()
	st := visitOnce(t, w, m, scholarURL)
	if st.Failed {
		t.Fatalf("blinded tunnel failed: %v", st.Err)
	}
	if w.GFW.Stats().KeywordResets != 0 {
		t.Error("keyword resets fired against the blinded tunnel")
	}
}

func TestHostsFileMethodWorksUntilIPBlocked(t *testing.T) {
	// The survey's "other methods" (Fig. 3): a hosts-file entry pointing
	// a volunteer mirror's innocuous name at an unblocked IP works —
	// until the GFW blacklists that IP too (whack-a-mole).
	w := newTestWorld(t, Config{})
	m := w.HostsFile(w.Client)
	defer m.Close()
	const mirror = "http://xueshu-mirror.example/"
	st := visitOnce(t, w, m, mirror)
	if st.Failed {
		t.Fatalf("mirror access failed while unblocked: %v", st.Err)
	}
	w.GFW.Apply(gfw.Policy{BlockIPs: []string{"64.233.189.19"}})
	st = visitOnce(t, w, m, mirror)
	if !st.Failed {
		t.Fatal("mirror access survived IP blacklisting")
	}
}

func TestHostsFileCannotBeatKeywordFilter(t *testing.T) {
	// Pointing scholar.google.com itself at an unblocked IP is futile:
	// the Host/SNI keyword filter matches the *name*, wherever it
	// resolves — why simple hosts tricks were already dying in the
	// study's era.
	w := newTestWorld(t, Config{})
	m := &tunnel.HostsFile{
		Dialer:  w.Client,
		Entries: map[string]string{"scholar.google.com": "64.233.189.19"},
	}
	st := visitOnce(t, w, m, scholarURL)
	if !st.Failed {
		t.Fatal("keyword-filtered name loaded via hosts file")
	}
	if w.GFW.Stats().KeywordResets == 0 {
		t.Error("no keyword reset recorded")
	}
}
