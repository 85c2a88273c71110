package scholarcloud

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scholarcloud/internal/autoscale"
	"scholarcloud/internal/core"
	"scholarcloud/internal/httpsim"
)

// startOrigin runs a plain-HTTP origin on a loopback socket and returns
// its host:port.
func startOrigin(t *testing.T, body string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := httpsim.ReadRequest(br); err != nil {
						return
					}
					resp := httpsim.NewResponse(200, []byte(body))
					if err := resp.Encode(conn); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRealSocketDeployment runs the full split-proxy system over loopback
// sockets: browser-side CONNECT through the domestic proxy, blinded
// tunnel to the remote proxy, remote dial to an origin.
func TestRealSocketDeployment(t *testing.T) {
	origin := startOrigin(t, "legal scholarly content")
	originHost, originPort, _ := strings.Cut(origin, ":")

	secret := []byte("deployment-secret")
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      secret,
		Whitelist:   []string{originHost},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	// Browser-side: CONNECT to the origin through the domestic proxy.
	conn, err := net.DialTimeout("tcp", domestic.ProxyAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n", origin, origin)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("CONNECT status = %q", status)
	}
	// Drain the rest of the response head.
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}

	// Speak HTTP through the tunnel.
	fmt.Fprintf(conn, "GET /paper HTTP/1.1\r\nHost: %s:%s\r\n\r\n", originHost, originPort)
	resp, err := httpsim.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "legal scholarly content" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestRealSocketWhitelistRefusal(t *testing.T) {
	secret := []byte("deployment-secret")
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      secret,
		Whitelist:   []string{"scholar.google.com"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	conn, err := net.DialTimeout("tcp", domestic.ProxyAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "CONNECT evil.example:443 HTTP/1.1\r\nHost: evil.example:443\r\n\r\n")
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "403") {
		t.Errorf("status = %q, want 403", status)
	}
}

func TestRealSocketPACEndpoint(t *testing.T) {
	secret := []byte("s")
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen:     "127.0.0.1:0",
		WebListen:       "127.0.0.1:0",
		RemoteAddr:      remote.Addr().String(),
		Secret:          secret,
		Whitelist:       []string{"scholar.google.com"},
		PublicProxyAddr: "proxy.thucloud.example:8118",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	conn, err := net.DialTimeout("tcp", domestic.WebAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /pac HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, err := httpsim.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "FindProxyForURL") ||
		!strings.Contains(body, "proxy.thucloud.example:8118") {
		t.Errorf("PAC = %q", body)
	}
}

func TestRealSocketWrongSecretFailsClosed(t *testing.T) {
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: []byte("right")})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      []byte("wrong"),
		Whitelist:   []string{"scholar.google.com"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	conn, err := net.DialTimeout("tcp", domestic.ProxyAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "CONNECT scholar.google.com:443 HTTP/1.1\r\nHost: scholar.google.com:443\r\n\r\n")
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil && err != io.EOF {
		return // connection dropped: acceptable fail-closed behaviour
	}
	if err == nil && !strings.Contains(status, "502") {
		t.Errorf("status = %q, want 502 or connection drop", status)
	}
}

// TestRealSocketAdminEndpoints deploys both proxies with admin listeners
// and checks that /healthz answers and /metrics reflects proxied traffic.
func TestRealSocketAdminEndpoints(t *testing.T) {
	origin := startOrigin(t, "measured content")
	originHost, _, _ := strings.Cut(origin, ":")
	secret := []byte("admin-secret")

	remote, err := StartRemote(RemoteConfig{
		Listen:      "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		Secret:      secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      secret,
		Whitelist:   []string{originHost},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	adminGet := func(addr net.Addr, path string) (*httpsim.Response, error) {
		conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: admin\r\n\r\n", path)
		return httpsim.ReadResponse(bufio.NewReader(conn))
	}

	for _, addr := range []net.Addr{remote.AdminAddr(), domestic.AdminAddr()} {
		if addr == nil {
			t.Fatal("AdminAddr() = nil with AdminListen configured")
		}
		resp, err := adminGet(addr, "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "ok") {
			t.Errorf("healthz on %s = %d %q", addr, resp.StatusCode, resp.Body)
		}
	}

	// One proxied CONNECT, then the counters must show it.
	conn, err := net.DialTimeout("tcp", domestic.ProxyAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n", origin, origin)
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("CONNECT status = %q", status)
	}
	conn.Close()

	resp, err := adminGet(domestic.AdminAddr(), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "core.domestic.requests=1") {
		t.Errorf("domestic /metrics missing request count:\n%s", body)
	}
	if !strings.Contains(body, "fleet.picks=1") {
		t.Errorf("domestic /metrics missing fleet pick:\n%s", body)
	}
	resp, err = adminGet(remote.AdminAddr(), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "core.remote.streams_opened=1") {
		t.Errorf("remote /metrics missing stream count:\n%s", resp.Body)
	}
}

// freePort reserves a loopback port by binding and immediately closing
// it, returning the address for a later bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// blockPort binds a listener whose only job is to make a later bind of
// the same address fail.
func blockPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestStartRemotePartialFailureCleansUp forces startAdmin to fail (its
// port is already taken) and checks StartRemote released the tunnel
// listener it had already bound: the port must be immediately
// rebindable.
func TestStartRemotePartialFailureCleansUp(t *testing.T) {
	listen := freePort(t)
	_, err := StartRemote(RemoteConfig{
		Listen:      listen,
		AdminListen: blockPort(t),
		Secret:      []byte("s"),
	})
	if err == nil {
		t.Fatal("StartRemote succeeded with its admin port taken")
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		t.Fatalf("tunnel port not released after failed start: %v", err)
	}
	ln.Close()
}

// TestStartDomesticPartialFailureCleansUp forces the same failure on the
// domestic side and checks the whole partial stack came down: both
// already-bound listeners are rebindable and the fleet's pre-dialed
// carrier connections to the (stub) remote are closed.
func TestStartDomesticPartialFailureCleansUp(t *testing.T) {
	// Stub remote: accept carriers and hold them so we can observe the
	// client side closing them.
	remoteLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer remoteLn.Close()
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			c, err := remoteLn.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	proxyListen, webListen := freePort(t), freePort(t)
	_, err = StartDomestic(DomesticConfig{
		ProxyListen: proxyListen,
		WebListen:   webListen,
		AdminListen: blockPort(t),
		RemoteAddr:  remoteLn.Addr().String(),
		Secret:      []byte("s"),
		Whitelist:   []string{"scholar.google.com"},
	})
	if err == nil {
		t.Fatal("StartDomestic succeeded with its admin port taken")
	}

	for _, addr := range []string{proxyListen, webListen} {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("port %s not released after failed start: %v", addr, err)
		}
		ln.Close()
	}

	// Every carrier the stub accepted must be closed by the pool's
	// teardown: reads end in EOF rather than hanging.
	for {
		select {
		case c := <-accepted:
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("carrier conn still open after failed start: read err = %v", err)
			}
			c.Close()
		default:
			return
		}
	}
}

func TestRealSocketCoordinatedRotation(t *testing.T) {
	origin := startOrigin(t, "post-rotation content")
	originHost, _, _ := strings.Cut(origin, ":")
	secret := []byte("rotating-secret")

	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      secret,
		Whitelist:   []string{originHost},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	connectOnce := func() error {
		conn, err := net.DialTimeout("tcp", domestic.ProxyAddr().String(), 5*time.Second)
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n", origin, origin)
		status, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			return err
		}
		if !strings.Contains(status, "200") {
			return fmt.Errorf("status %q", status)
		}
		return nil
	}
	if err := connectOnce(); err != nil {
		t.Fatalf("epoch 0: %v", err)
	}
	// Coordinated rotation: both ends move to epoch 1.
	remote.remote.SetEpoch(1)
	domestic.Rotate(1)
	if err := connectOnce(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
}

// TestRealSocketTransportLadder runs the domestic proxy with a carrier
// escalation ladder instead of a fixed remote: a single blinded rung
// pointing at the real-socket remote proxy. Page loads flow through the
// transport-labeled fleet endpoint and the ladder reports its rung.
func TestRealSocketTransportLadder(t *testing.T) {
	origin := startOrigin(t, "ladder-carried content")
	originHost, originPort, _ := strings.Cut(origin, ":")

	secret := []byte("deployment-secret")
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		Transports:  []string{"blinded=" + remote.Addr().String()},
		Secret:      secret,
		Whitelist:   []string{originHost},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	if got := domestic.ActiveTransport(); got != "blinded" {
		t.Fatalf("ActiveTransport = %q, want %q", got, "blinded")
	}

	conn, err := net.DialTimeout("tcp", domestic.ProxyAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n", origin, origin)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("CONNECT status = %q", status)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	fmt.Fprintf(conn, "GET /paper HTTP/1.1\r\nHost: %s:%s\r\n\r\n", originHost, originPort)
	resp, err := httpsim.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "ladder-carried content" {
		t.Errorf("body = %q", resp.Body)
	}
}

// TestStartDomesticTransportValidation checks the Transports entry
// parser and its interaction with the legacy remote fields.
func TestStartDomesticTransportValidation(t *testing.T) {
	secret := []byte("s")
	base := func() DomesticConfig {
		return DomesticConfig{
			ProxyListen: "127.0.0.1:0",
			WebListen:   "127.0.0.1:0",
			Secret:      secret,
		}
	}
	cases := []struct {
		name string
		mut  func(*DomesticConfig)
		want string
	}{
		{"neither", func(*DomesticConfig) {}, "needs RemoteAddr"},
		{"both", func(c *DomesticConfig) {
			c.RemoteAddr = "127.0.0.1:1"
			c.Transports = []string{"blinded=127.0.0.1:1"}
		}, "mutually exclusive"},
		{"malformed", func(c *DomesticConfig) {
			c.Transports = []string{"blinded"}
		}, `want "name=host:port"`},
		{"unknown", func(c *DomesticConfig) {
			c.Transports = []string{"warp-drive=127.0.0.1:1"}
		}, "unknown transport"},
		{"duplicate", func(c *DomesticConfig) {
			c.Transports = []string{"blinded=127.0.0.1:1", "blinded=127.0.0.1:2"}
		}, "duplicate transport"},
		{"censor-unknown", func(c *DomesticConfig) {
			c.Transports = []string{"blinded=127.0.0.1:1"}
			c.CensorProfile = "panopticon"
		}, "unknown censor profile"},
		{"censor-needs-ladder", func(c *DomesticConfig) {
			c.RemoteAddr = "127.0.0.1:1"
			c.CensorProfile = "adaptive"
		}, "CensorProfile requires Transports"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			d, err := StartDomestic(cfg)
			if err == nil {
				d.Close()
				t.Fatalf("StartDomestic accepted %+v", cfg.Transports)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRealSocketCensorProfile deploys the survival-tuned ladder: a
// CensorProfile rides on Transports and the proxy comes up on the
// ladder's first rung with the censor package's tuning applied.
func TestRealSocketCensorProfile(t *testing.T) {
	secret := []byte("deployment-secret")
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	domestic, err := StartDomestic(DomesticConfig{
		ProxyListen:   "127.0.0.1:0",
		WebListen:     "127.0.0.1:0",
		Transports:    []string{"blinded=" + remote.Addr().String()},
		CensorProfile: "adaptive",
		Resilience:    true,
		Secret:        secret,
		Whitelist:     []string{"scholar.google.com"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer domestic.Close()

	if got := domestic.ActiveTransport(); got != "blinded" {
		t.Fatalf("ActiveTransport = %q, want %q", got, "blinded")
	}
}

// TestRealSocketLadderTuning is the "simulated survival rates transfer"
// promise made checkable: a Transports deployment runs the laddered-border
// tuning the simulator's ladder and censor worlds are measured with (the
// single-transport defaults would bound a rendezvous dial at 3 s and hedge
// a DNS-tunnel page load after 2 s), and explicit deadlines still win.
func TestRealSocketLadderTuning(t *testing.T) {
	secret := []byte("deployment-secret")
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	for _, tc := range []struct {
		name                string
		dial, request       time.Duration // DomesticConfig overrides
		wantDial, wantHedge time.Duration
		wantRequest         time.Duration
	}{
		{name: "defaults", wantDial: core.LadderDialTimeout, wantHedge: core.LadderHedgeAfter, wantRequest: core.LadderRequestTimeout},
		{name: "explicit", dial: 4 * time.Second, request: 20 * time.Second,
			wantDial: 4 * time.Second, wantHedge: core.LadderHedgeAfter, wantRequest: 20 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			domestic, err := StartDomestic(DomesticConfig{
				ProxyListen:    "127.0.0.1:0",
				WebListen:      "127.0.0.1:0",
				Transports:     []string{"blinded=" + remote.Addr().String()},
				Resilience:     true,
				DialTimeout:    tc.dial,
				RequestTimeout: tc.request,
				Secret:         secret,
				Whitelist:      []string{"scholar.google.com"},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer domestic.Close()
			pc, resil := domestic.pool.Config(), domestic.domestic.Resil
			if pc.DialTimeout != tc.wantDial || pc.ProbeTimeout != core.LadderProbeTimeout {
				t.Errorf("pool dial bound/probe timeout = %v/%v, want %v/%v",
					pc.DialTimeout, pc.ProbeTimeout, tc.wantDial, core.LadderProbeTimeout)
			}
			if resil.HedgeAfter != tc.wantHedge || resil.RequestTimeout != tc.wantRequest {
				t.Errorf("hedge trigger/request deadline = %v/%v, want %v/%v",
					resil.HedgeAfter, resil.RequestTimeout, tc.wantHedge, tc.wantRequest)
			}
		})
	}
}

// startCountingOrigin is startOrigin plus a hit counter, so shard tests
// can assert how many fetches actually crossed to the origin.
func startCountingOrigin(t *testing.T, body string) (addr string, hits func() int64) {
	t.Helper()
	var n int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := httpsim.ReadRequest(br); err != nil {
						return
					}
					atomic.AddInt64(&n, 1)
					resp := httpsim.NewResponse(200, []byte(body))
					if err := resp.Encode(conn); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() int64 { return atomic.LoadInt64(&n) }
}

// proxyGet issues an absolute-URI GET through the proxy at proxyAddr,
// the plain-HTTP proxying path shard caches key on.
func proxyGet(t *testing.T, proxyAddr, target string) *httpsim.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", proxyAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	u, err := httpsim.ParseURL(target)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", target, u.Host)
	resp, err := httpsim.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("GET %s via %s: %v", target, proxyAddr, err)
	}
	return resp
}

// TestRealSocketShardedTier runs a three-shard domestic tier over
// loopback sockets and checks the tentpole's deployment-side guarantees:
// the PAC embeds the whole tier with the rendezvous assignment, every
// shard serves the shared object, and the object crosses to the origin
// exactly once however many shards are asked.
func TestRealSocketShardedTier(t *testing.T) {
	origin, originHits := startCountingOrigin(t, "tier-cached content")
	originHost, _, _ := strings.Cut(origin, ":")
	secret := []byte("tier-secret")

	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	tier, err := StartDomesticTier(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      secret,
		Whitelist:   []string{originHost},
		CacheMB:     4,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	addrs := tier.Addrs()
	if len(addrs) != 3 {
		t.Fatalf("tier addrs = %v, want 3", addrs)
	}
	pacFile := tier.PAC()
	for _, a := range addrs {
		if !strings.Contains(pacFile, a) {
			t.Errorf("PAC does not list shard %s:\n%s", a, pacFile)
		}
	}
	if !strings.Contains(pacFile, "myIpAddress()") {
		t.Errorf("sharded PAC lacks the rendezvous assignment:\n%s", pacFile)
	}

	target := "http://" + origin + "/paper"
	for i, d := range tier.Shards() {
		resp := proxyGet(t, d.ProxyAddr().String(), target)
		if resp.StatusCode != 200 || string(resp.Body) != "tier-cached content" {
			t.Fatalf("shard %d: %d %q", i, resp.StatusCode, resp.Body)
		}
	}
	if got := originHits(); got != 1 {
		t.Errorf("origin fetched %d times by a 3-shard tier, want exactly 1", got)
	}
	var siblings, borders int64
	for _, d := range tier.Shards() {
		st := d.domestic.Cache.Snapshot()
		siblings += st.SiblingFetches
		borders += st.BorderFetches
	}
	if borders != 1 {
		t.Errorf("tier border fetches = %d, want 1", borders)
	}
	if siblings != 2 {
		t.Errorf("tier sibling fetches = %d, want 2 (one per non-owner)", siblings)
	}
}

// TestRealSocketShardedTierTakedown seizes one shard of a running tier
// and checks the coordinated response on every survivor: PAC republish,
// ring rehash, and continued service.
func TestRealSocketShardedTierTakedown(t *testing.T) {
	origin, _ := startCountingOrigin(t, "survivor content")
	originHost, _, _ := strings.Cut(origin, ":")
	secret := []byte("tier-secret")

	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	tier, err := StartDomesticTier(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      secret,
		Whitelist:   []string{originHost},
		CacheMB:     4,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	addrs := tier.Addrs()
	victim := addrs[2]
	tier.MarkDown(victim)
	for i, d := range tier.Shards() {
		if strings.Contains(d.PAC(), victim) {
			t.Errorf("shard %d's PAC still lists the seized shard %s", i, victim)
		}
		if got := d.ShardAddrs(); len(got) != 2 {
			t.Errorf("shard %d publishes %v, want the 2 survivors", i, got)
		}
	}

	// Survivors keep serving, including keys the victim owned.
	target := "http://" + origin + "/cite/42"
	resp := proxyGet(t, tier.Shards()[0].ProxyAddr().String(), target)
	if resp.StatusCode != 200 || string(resp.Body) != "survivor content" {
		t.Fatalf("post-takedown fetch: %d %q", resp.StatusCode, resp.Body)
	}

	tier.MarkUp(victim)
	if got := tier.Shards()[0].ShardAddrs(); len(got) != 3 {
		t.Errorf("after MarkUp the tier publishes %v, want all 3", got)
	}
}

// TestRealSocketShardAddrsPeering is the multi-process tier: two
// StartDomestic calls (one per shard, as separate machines would run),
// each configured with the full tier in ShardAddrs. A shared object
// fetched through both shards crosses to the origin once.
func TestRealSocketShardAddrsPeering(t *testing.T) {
	origin, originHits := startCountingOrigin(t, "peered content")
	originHost, _, _ := strings.Cut(origin, ":")
	secret := []byte("peer-secret")

	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	tierAddrs := []string{freePort(t), freePort(t)}
	var shards []*DomesticProxy
	for _, self := range tierAddrs {
		d, err := StartDomestic(DomesticConfig{
			ProxyListen:     self,
			WebListen:       "127.0.0.1:0",
			RemoteAddr:      remote.Addr().String(),
			Secret:          secret,
			Whitelist:       []string{originHost},
			PublicProxyAddr: self,
			CacheMB:         4,
			ShardAddrs:      tierAddrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		shards = append(shards, d)
	}

	target := "http://" + origin + "/paper"
	for i, d := range shards {
		resp := proxyGet(t, d.ProxyAddr().String(), target)
		if resp.StatusCode != 200 || string(resp.Body) != "peered content" {
			t.Fatalf("shard %d: %d %q", i, resp.StatusCode, resp.Body)
		}
	}
	if got := originHits(); got != 1 {
		t.Errorf("origin fetched %d times by a 2-shard tier, want exactly 1", got)
	}

	// Each process holds its own tier: a takedown is told to each shard.
	shards[0].MarkShardDown(tierAddrs[1])
	if got := shards[0].ShardAddrs(); len(got) != 1 || got[0] != tierAddrs[0] {
		t.Errorf("after MarkShardDown shard 0 publishes %v, want just itself", got)
	}
	if got := shards[1].ShardAddrs(); len(got) != 2 {
		t.Errorf("shard 1 (not yet told) publishes %v, want the full tier", got)
	}
	shards[0].MarkShardUp(tierAddrs[1])
	if got := shards[0].ShardAddrs(); !slices.Equal(got, tierAddrs) {
		t.Errorf("after MarkShardUp shard 0 publishes %v, want %v", got, tierAddrs)
	}
	if got := shards[1].ShardAddrs(); !slices.Equal(got, tierAddrs) {
		t.Errorf("shard 1 (never told) publishes %v, want %v", got, tierAddrs)
	}
	snap := shards[0].reg.Snapshot()
	if downs, ups := snap.Counter("shard.director.mark_down"), snap.Counter("shard.director.mark_up"); downs != 1 || ups != 1 {
		t.Errorf("shard 0 counted %d mark_down / %d mark_up, want 1 / 1", downs, ups)
	}
	if got := shards[1].reg.Snapshot().Counter("shard.director.mark_down"); got != 0 {
		t.Errorf("shard 1 counted %d mark_down, want 0 (it was never told)", got)
	}
}

// TestRealSocketTierShardMarkDownFansOut tells one shard of a one-process
// tier about a takedown: every shard shares the tier, so every shard's PAC
// drops the victim and every shard's /metrics counts the transition, and
// a recovery told to a different shard restores the tier everywhere.
func TestRealSocketTierShardMarkDownFansOut(t *testing.T) {
	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: []byte("fan-out")})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	tier, err := StartDomesticTier(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      []byte("fan-out"),
		Whitelist:   []string{"scholar.google.com"},
		CacheMB:     4,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	addrs := tier.Addrs()
	victim := addrs[2]
	tier.Shards()[0].MarkShardDown(victim)
	for i, d := range tier.Shards() {
		if strings.Contains(d.PAC(), victim) {
			t.Errorf("shard %d's PAC still lists the seized shard %s", i, victim)
		}
		if got := d.reg.Snapshot().Counter("shard.director.mark_down"); got != 1 {
			t.Errorf("shard %d counted %d mark_down, want 1", i, got)
		}
	}
	tier.Shards()[1].MarkShardUp(victim)
	for i, d := range tier.Shards() {
		if got := d.ShardAddrs(); !slices.Equal(got, addrs) {
			t.Errorf("shard %d publishes %v after MarkShardUp, want %v", i, got, addrs)
		}
		if !strings.Contains(d.PAC(), victim) {
			t.Errorf("shard %d's PAC does not list the readmitted shard %s", i, victim)
		}
	}
}

// TestStartDomesticShardAddrsValidation checks the multi-process shard
// invariants fail closed with instructive errors.
func TestStartDomesticShardAddrsValidation(t *testing.T) {
	base := func() DomesticConfig {
		return DomesticConfig{
			ProxyListen:     "127.0.0.1:0",
			WebListen:       "127.0.0.1:0",
			RemoteAddr:      "127.0.0.1:1",
			Secret:          []byte("s"),
			PublicProxyAddr: "shard-a.example:8118",
			CacheMB:         4,
			ShardAddrs:      []string{"shard-a.example:8118", "shard-b.example:8118"},
		}
	}
	cases := []struct {
		name string
		mut  func(*DomesticConfig)
		want string
	}{
		{"one shard", func(c *DomesticConfig) {
			c.ShardAddrs = c.ShardAddrs[:1]
		}, "one-shard tier"},
		{"no cache", func(c *DomesticConfig) { c.CacheMB = 0 }, "requires CacheMB"},
		{"with transports", func(c *DomesticConfig) {
			c.RemoteAddr = ""
			c.Transports = []string{"blinded=127.0.0.1:1"}
		}, "mutually exclusive"},
		{"not a member", func(c *DomesticConfig) {
			c.PublicProxyAddr = "elsewhere.example:8118"
		}, "not in ShardAddrs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			d, err := StartDomestic(cfg)
			if err == nil {
				d.Close()
				t.Fatal("StartDomestic accepted an invalid shard config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestStartDomesticTierValidation checks the one-process tier's
// invariants.
func TestStartDomesticTierValidation(t *testing.T) {
	base := func() DomesticConfig {
		return DomesticConfig{
			ProxyListen: "127.0.0.1:0",
			WebListen:   "127.0.0.1:0",
			RemoteAddr:  "127.0.0.1:1",
			Secret:      []byte("s"),
			CacheMB:     4,
		}
	}
	cases := []struct {
		name   string
		shards int
		mut    func(*DomesticConfig)
		want   string
	}{
		{"one shard", 1, func(*DomesticConfig) {}, "single proxy"},
		{"no cache", 2, func(c *DomesticConfig) { c.CacheMB = 0 }, "requires CacheMB"},
		{"with transports", 2, func(c *DomesticConfig) {
			c.RemoteAddr = ""
			c.Transports = []string{"blinded=127.0.0.1:1"}
		}, "mutually exclusive"},
		{"shard addrs set", 2, func(c *DomesticConfig) {
			c.ShardAddrs = []string{"a:1", "b:1"}
		}, "leave ShardAddrs empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			tier, err := StartDomesticTier(cfg, tc.shards)
			if err == nil {
				tier.Close()
				t.Fatal("StartDomesticTier accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRealSocketAutoscaledTier starts a three-shard tier with two shards
// parked as standbys, then drives the scale path by hand (the control
// loop itself is interval-gated off): a scale-up must warm the joiners
// from peers without touching the origin, a scale-down must drain the
// leaver's keys to the survivors, and the admin listener must expose the
// tier's membership gauges and the /scale-events log throughout.
func TestRealSocketAutoscaledTier(t *testing.T) {
	origin, originHits := startCountingOrigin(t, "elastic content")
	originHost, _, _ := strings.Cut(origin, ":")
	secret := []byte("elastic-secret")

	remote, err := StartRemote(RemoteConfig{Listen: "127.0.0.1:0", Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	tier, err := StartDomesticTier(DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		RemoteAddr:  remote.Addr().String(),
		Secret:      secret,
		Whitelist:   []string{originHost},
		CacheMB:     4,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	// A second StartAutoscale must be refused once one is running.
	if err := tier.StartAutoscale(AutoscaleOptions{InitialShards: 1, Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := tier.StartAutoscale(AutoscaleOptions{InitialShards: 1, Interval: time.Hour}); err == nil {
		t.Error("second StartAutoscale did not fail")
	}
	if tier.Autoscaler() == nil {
		t.Fatal("Autoscaler() = nil after StartAutoscale")
	}

	// Standbys are parked: the PAC routes only to shard 0.
	if got := tier.Shards()[0].ShardAddrs(); len(got) != 1 {
		t.Fatalf("active shards at start = %v, want just shard 0", got)
	}

	adminGet := func(d *DomesticProxy, path string) string {
		t.Helper()
		conn, err := net.DialTimeout("tcp", d.AdminAddr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: admin\r\n\r\n", path)
		resp, err := httpsim.ReadResponse(bufio.NewReader(conn))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(resp.Body)
	}
	metrics := adminGet(tier.Shards()[0], "/metrics")
	for _, want := range []string{"shard.director.live=1", "shard.director.members=3", "autoscale.ticks=0"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if got := adminGet(tier.Shards()[0], "/scale-events"); got != "no scale events\n" {
		t.Errorf("/scale-events before any decision = %q", got)
	}

	// Populate the lone active shard, then scale up: joiners pre-seed the
	// keys they take over from peers, never from across the border.
	for i := 0; i < 12; i++ {
		proxyGet(t, tier.Shards()[0].ProxyAddr().String(), fmt.Sprintf("http://%s/paper/%d", origin, i))
	}
	hitsBefore := originHits()
	preseeded := 0
	for i := 1; i < 3; i++ {
		preseeded += tier.orch.Admit(i)
	}
	if preseeded == 0 {
		t.Error("scale-up pre-seeded no keys")
	}
	if got := originHits(); got != hitsBefore {
		t.Errorf("warm-up fetched the origin %d extra times, want 0", got-hitsBefore)
	}
	if got := tier.Shards()[0].ShardAddrs(); len(got) != 3 {
		t.Errorf("active shards after scale-up = %v, want all 3", got)
	}
	if got := adminGet(tier.Shards()[2], "/metrics"); !strings.Contains(got, "shard.director.live=3") {
		t.Errorf("joiner's /metrics does not show the full tier:\n%s", got)
	}

	// Route some traffic through the highest shard so it owns fresh keys,
	// then scale down: its keys drain to the survivors domestically.
	for i := 0; i < 4; i++ {
		proxyGet(t, tier.Shards()[2].ProxyAddr().String(), fmt.Sprintf("http://%s/cite/%d", origin, i))
	}
	hitsBefore = originHits()
	handed := tier.orch.Retire(2)
	if handed == 0 {
		t.Error("scale-down handed no keys to the survivors")
	}
	if got := originHits(); got != hitsBefore {
		t.Errorf("drain fetched the origin %d extra times, want 0", got-hitsBefore)
	}
	if got := tier.Shards()[0].ShardAddrs(); len(got) != 2 {
		t.Errorf("active shards after scale-down = %v, want 2", got)
	}
}

// TestRenderScaleEvents checks the admin /scale-events formatting: one
// priced line per decision, with apply errors surfaced.
func TestRenderScaleEvents(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	got := string(renderScaleEvents([]autoscale.Decision{
		{At: at, From: 1, To: 3, Reason: "demand", VMPerDayUSD: 4.20, DeltaUSD: 2.10},
		{At: at.Add(time.Minute), From: 3, To: 2, Reason: "idle", VMPerDayUSD: 3.15, DeltaUSD: -1.05, Err: fmt.Errorf("boom")},
	}))
	want := "2026-08-08T12:00:00Z 1->3 demand vm=4.20$/day delta=+2.10$/day\n" +
		"2026-08-08T12:01:00Z 3->2 idle vm=3.15$/day delta=-1.05$/day err=boom\n"
	if got != want {
		t.Errorf("renderScaleEvents:\n got %q\nwant %q", got, want)
	}
}
