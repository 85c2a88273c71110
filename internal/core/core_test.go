package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"scholarcloud/internal/fleet"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/pac"
	"scholarcloud/internal/pki"
	"scholarcloud/internal/tlssim"
)

// coreWorld wires domestic + remote proxies and an origin across a
// border, without the GFW (censorship interplay is covered by
// internal/experiments; these tests pin the proxy mechanics).
type coreWorld struct {
	n        *netsim.Network
	env      netx.Env
	client   *netsim.Host
	domestic *netsim.Host
	remoteH  *netsim.Host
	origin   *netsim.Host
	usZone   *netsim.Zone

	remote    *Remote
	dom       *Domestic
	whitelist *pac.Config
	ca        *pki.CA
}

func newCoreWorld(t *testing.T) *coreWorld {
	t.Helper()
	n := netsim.New(71)
	t.Cleanup(n.Stop)
	cn := n.AddZone("cn")
	us := n.AddZone("us")
	n.Connect(cn, us, netsim.LinkConfig{Delay: 70 * time.Millisecond})
	acc := netsim.LinkConfig{Delay: 2 * time.Millisecond}
	w := &coreWorld{
		n:        n,
		env:      n.Env(),
		client:   n.AddHost("client", "10.0.0.2", cn, acc),
		domestic: n.AddHost("domestic", "101.6.6.6", cn, acc),
		remoteH:  n.AddHost("remote", "198.51.100.7", us, acc),
		origin:   n.AddHost("origin", "203.0.113.10", us, acc),
		usZone:   us,
	}

	ca, err := pki.NewCA("core-test-ca", n.Clock().Now, n.Env().Rand)
	if err != nil {
		t.Fatal(err)
	}
	w.ca = ca
	id, err := ca.Issue("remote.scholarcloud.example", true)
	if err != nil {
		t.Fatal(err)
	}

	// Echo origin on :7 and a tiny HTTP responder on :80.
	eln, err := w.origin.Listen("tcp", ":7")
	if err != nil {
		t.Fatal(err)
	}
	n.Scheduler().Go(func() {
		for {
			conn, err := eln.Accept()
			if err != nil {
				return
			}
			n.Scheduler().Go(func() { defer conn.Close(); io.Copy(conn, conn) })
		}
	})
	hln, err := w.origin.Listen("tcp", ":80")
	if err != nil {
		t.Fatal(err)
	}
	n.Scheduler().Go(func() {
		for {
			conn, err := hln.Accept()
			if err != nil {
				return
			}
			n.Scheduler().Go(func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				if _, err := conn.Read(buf); err != nil {
					return
				}
				conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"))
			})
		}
	})

	secret := []byte("tunnel-secret")
	w.remote = &Remote{
		Env: w.env,
		DialHost: func(host string, port int) (net.Conn, error) {
			return w.remoteH.DialTCP(fmt.Sprintf("%s:%d", host, port))
		},
		Secret:   secret,
		Identity: id,
	}
	rln, err := w.remoteH.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	n.Scheduler().Go(func() { w.remote.Serve(rln) })

	w.whitelist = pac.New("101.6.6.6:8118", []string{"origin.example", "203.0.113.10"})
	w.dom = &Domestic{
		Env:          w.env,
		Secret:       secret,
		Whitelist:    w.whitelist,
		VerifyRemote: ca.Verifier(),
		RemoteName:   "remote.scholarcloud.example",
	}
	pln, err := w.domestic.Listen("tcp", ":8118")
	if err != nil {
		t.Fatal(err)
	}
	proxy := w.dom.Proxy()
	n.Scheduler().Go(func() { proxy.Serve(pln) })
	return w
}

// border assembles the proxy's border hop over eps (default: the primary
// remote alone) — how every test in this package gets a stream path. The
// pool is closed with the test.
func (w *coreWorld) border(t *testing.T, cfg fleet.Config, eps ...fleet.Endpoint) *fleet.Pool {
	t.Helper()
	if len(eps) == 0 {
		eps = []fleet.Endpoint{{Name: "198.51.100.7:8443", Dial: func() (net.Conn, error) {
			return w.domestic.DialTCP("198.51.100.7:8443")
		}}}
	}
	// Assemble on a managed goroutine: the pool's warmers start as soon as
	// each endpoint is added, and only the scheduler keeps them from
	// running while fleet.New is still adding the rest.
	var pool *fleet.Pool
	w.run(t, func() (err error) {
		pool, _, err = w.dom.AssembleBorder(Border{Remotes: eps, Pool: cfg}, nil)
		return err
	})
	t.Cleanup(pool.Close)
	return pool
}

func (w *coreWorld) run(t *testing.T, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	w.n.Scheduler().Go(func() { done <- fn() })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("simulation deadlocked")
	}
}

func TestSecureStreamThroughBothProxies(t *testing.T) {
	w := newCoreWorld(t)
	w.border(t, fleet.Config{})
	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return err
		}
		msg := []byte("end to end through the split proxy")
		conn.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, got); err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("echo = %q", got)
		}
		return nil
	})
	if st := w.remote.Stats(); st.StreamsOpened != 1 {
		t.Errorf("remote stats = %+v", st)
	}
}

func TestPlainHTTPUsesPerStreamChannel(t *testing.T) {
	w := newCoreWorld(t)
	w.border(t, fleet.Config{})
	// Watch the border: the HTTP payload between the proxies must be
	// wrapped (blinded mux + per-stream TLS) — "hello" never in the clear
	// between domestic and remote.
	var leaked bool
	w.n.SetTrace(func(pkt *netsim.Packet) {
		interProxy := (pkt.Src.IP == "101.6.6.6" && pkt.Dst.IP == "198.51.100.7") ||
			(pkt.Src.IP == "198.51.100.7" && pkt.Dst.IP == "101.6.6.6")
		if interProxy && bytes.Contains(pkt.Payload, []byte("hello")) {
			leaked = true
		}
	})
	defer w.n.SetTrace(nil)

	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		// Absolute-URI plain-HTTP request through the proxy.
		fmt.Fprintf(conn, "GET http://203.0.113.10/ HTTP/1.1\r\nHost: 203.0.113.10\r\n\r\n")
		var got []byte
		buf := make([]byte, 512)
		for !strings.Contains(string(got), "hello") {
			n, err := conn.Read(buf)
			if err != nil {
				t.Errorf("response so far %q, read error: %v", got, err)
				return nil
			}
			got = append(got, buf[:n]...)
		}
		return nil
	})
	if leaked {
		t.Error("plain-HTTP payload crossed the inter-proxy link unprotected")
	}
}

func TestWhitelistRefusalBeforeTunnel(t *testing.T) {
	w := newCoreWorld(t)
	w.border(t, fleet.Config{})
	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		err = connectThrough(conn, "forbidden.example:443")
		if err == nil {
			t.Error("off-whitelist CONNECT granted")
		}
		return nil
	})
	if st := w.remote.Stats(); st.StreamsOpened != 0 {
		t.Error("refused request still crossed the tunnel")
	}
	if st := w.dom.Stats(); st.Refused != 1 {
		t.Errorf("domestic stats = %+v", st)
	}
}

func TestTunnelPersistsAcrossStreams(t *testing.T) {
	w := newCoreWorld(t)
	w.border(t, fleet.Config{})
	w.run(t, func() error {
		for i := 0; i < 3; i++ {
			conn, err := w.client.DialTCP("101.6.6.6:8118")
			if err != nil {
				return err
			}
			if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
				return err
			}
			conn.Write([]byte{1})
			buf := make([]byte, 1)
			io.ReadFull(conn, buf)
			conn.Close()
		}
		return nil
	})
	// The pool's pre-dialed carriers serve all three streams.
	if st := w.remote.Stats(); st.StreamsOpened != 3 {
		t.Errorf("streams = %d, want 3", st.StreamsOpened)
	}
	if st := w.dom.Stats(); st.Streams != 3 {
		t.Errorf("domestic streams = %d, want 3", st.Streams)
	}
}

func TestTunnelRecoversAfterCarrierLoss(t *testing.T) {
	w := newCoreWorld(t)
	w.border(t, fleet.Config{})
	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return err
		}
		conn.Close()

		// Kill the carrier (simulates a censor reset or remote restart).
		w.dom.Rotate(w.dom.Epoch) // recycles every pooled carrier; same epoch

		conn2, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn2.Close()
		if err := connectThrough(conn2, "203.0.113.10:7"); err != nil {
			return fmt.Errorf("proxy did not recover: %w", err)
		}
		msg := []byte("after recovery")
		conn2.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn2, got); err != nil {
			return err
		}
		return nil
	})
}

func TestRemoteDropsNonBlindedPeer(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		// Speak valid-looking TLS (not blinded) at the remote: it must
		// drop the connection without answering.
		raw, err := w.client.DialTCP("198.51.100.7:8443")
		if err != nil {
			return err
		}
		defer raw.Close()
		tc := tlssim.Client(raw, tlssim.Config{ServerName: "remote.scholarcloud.example"})
		if err := tc.Handshake(); err == nil {
			t.Error("non-blinded TLS handshake with the remote succeeded")
		}
		return nil
	})
}

func TestPACHandlerServesPolicy(t *testing.T) {
	w := newCoreWorld(t)
	h := w.dom.PACHandler()
	resp := h.ServeHTTP(reqFor("/pac"), netsim.Addr{Net: "tcp", AP: netsim.AddrPort{IP: "10.0.0.2", Port: 1}})
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "FindProxyForURL") {
		t.Errorf("pac response = %d %q", resp.StatusCode, resp.Body)
	}
	resp = h.ServeHTTP(reqFor("/whitelist"), netsim.Addr{Net: "tcp", AP: netsim.AddrPort{IP: "10.0.0.2", Port: 1}})
	if !strings.Contains(string(resp.Body), "origin.example") {
		t.Errorf("whitelist = %q", resp.Body)
	}
}

func TestSplitHostPortValidation(t *testing.T) {
	for _, bad := range []string{"nohost", "h:0", "h:-1", "h:99999", "h:"} {
		if _, _, err := splitHostPort(bad); err == nil {
			t.Errorf("splitHostPort(%q) succeeded", bad)
		}
	}
	h, p, err := splitHostPort("scholar.google.com:443")
	if err != nil || h != "scholar.google.com" || p != 443 {
		t.Errorf("splitHostPort = %q %d %v", h, p, err)
	}
}

func reqFor(path string) *httpsim.Request {
	return &httpsim.Request{Method: "GET", Target: path, Host: "x", Header: map[string]string{}}
}

func TestFailoverToStandbyRemote(t *testing.T) {
	w := newCoreWorld(t)
	// Stand up a standby remote on a second host in the same zone.
	standbyHost := w.n.AddHost("standby", "198.51.100.8", w.usZone, netsim.LinkConfig{Delay: 2 * time.Millisecond})
	id, err := w.ca.Issue("remote.scholarcloud.example", true)
	if err != nil {
		t.Fatal(err)
	}
	standby := &Remote{
		Env: w.env,
		DialHost: func(host string, port int) (net.Conn, error) {
			return standbyHost.DialTCP(fmt.Sprintf("%s:%d", host, port))
		},
		Secret:   []byte("tunnel-secret"),
		Identity: id,
	}
	sln, err := standbyHost.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	w.n.Scheduler().Go(func() { standby.Serve(sln) })

	// The paper's manual-standby deployment is now expressed as a
	// degenerate two-member fleet: dead primary, live standby.
	pool := w.border(t, fleet.Config{ProbeInterval: time.Hour, Seed: 7}, // keep probe traffic out of this test
		fleet.Endpoint{Name: "primary", Dial: func() (net.Conn, error) {
			return nil, fmt.Errorf("primary remote is down")
		}},
		fleet.Endpoint{Name: "standby", Dial: func() (net.Conn, error) {
			return w.domestic.DialTCP("198.51.100.8:8443")
		}})
	// Primary remote goes away entirely.
	w.remote.Close()

	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return fmt.Errorf("failover did not engage: %w", err)
		}
		msg := []byte("served by the standby")
		conn.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, got); err != nil {
			return err
		}
		return nil
	})
	if standby.Stats().StreamsOpened == 0 {
		t.Error("standby remote never served a stream")
	}
	if st := w.dom.Stats(); st.Streams != 1 {
		t.Errorf("stats = %+v, want 1 stream opened", st)
	}
	for _, ep := range pool.Stats().Endpoints {
		if ep.Name == "standby" && ep.StreamsOpened == 0 {
			t.Error("pool never opened a stream on the standby endpoint")
		}
	}
}

func TestAllDialsFailReturnsTypedError(t *testing.T) {
	w := newCoreWorld(t)
	dead := func(name string) func() (net.Conn, error) {
		return func() (net.Conn, error) { return nil, fmt.Errorf("%s unreachable", name) }
	}
	w.border(t, fleet.Config{ProbeInterval: time.Hour, Seed: 7},
		fleet.Endpoint{Name: "primary", Dial: dead("primary")},
		fleet.Endpoint{Name: "standby-1", Dial: dead("standby 1")},
		fleet.Endpoint{Name: "standby-2", Dial: dead("standby 2")})

	_, err := w.dom.openSecure("203.0.113.10:7")
	if !errors.Is(err, ErrAllRemotesDown) {
		t.Errorf("err = %v, want ErrAllRemotesDown", err)
	}
}

// restartRemote models a remote VM restart: the listener and every
// established carrier die, then the same Remote serves a fresh listener on
// the same address. Nothing notifies the domestic proxy.
func (w *coreWorld) restartRemote(t *testing.T, down time.Duration) {
	t.Helper()
	w.remote.Close()
	w.env.Clock.Sleep(down)
	ln, err := w.remoteH.Listen("tcp", ":8443")
	if err != nil {
		t.Error(err)
		return
	}
	w.n.Scheduler().Go(func() { w.remote.Serve(ln) })
}

// echoThroughProxy opens a CONNECT tunnel to the echo origin and checks
// one round trip.
func (w *coreWorld) echoThroughProxy(msg string) error {
	conn, err := w.client.DialTCP("101.6.6.6:8118")
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
		return err
	}
	conn.Write([]byte(msg))
	got := make([]byte, len(msg))
	_, err = io.ReadFull(conn, got)
	return err
}

func TestDeadCachedSessionRedials(t *testing.T) {
	w := newCoreWorld(t)
	pool := w.border(t, fleet.Config{ProbeInterval: time.Hour}) // no prober: the request path must notice
	w.run(t, func() error {
		if err := w.echoThroughProxy("first"); err != nil {
			return err
		}
		// The carriers die underneath the proxy (remote restart, censor
		// reset) without anyone calling Rotate.
		w.restartRemote(t, time.Second)

		// The next request must notice the dead sessions and re-dial.
		if err := w.echoThroughProxy("re-dialed"); err != nil {
			return fmt.Errorf("proxy stuck on dead cached session: %w", err)
		}
		return nil
	})
	if st := w.dom.Stats(); st.Streams != 2 {
		t.Errorf("domestic streams = %d, want 2", st.Streams)
	}
	if ep := pool.Stats().Endpoints[0]; ep.StreamsOpened != 2 || !ep.Healthy {
		t.Errorf("endpoint = %+v, want 2 streams on a healthy endpoint", ep)
	}
}

// TestOneMemberBorderReadmitsRestartedRemote: a single-remote deployment
// is a one-member pool, so an outage must not strand it. While the remote
// is down the prober ejects the endpoint and requests fail fast with the
// typed error; once it is back, the re-admission probe restores it with no
// operator action — what the deleted single-session path's reconnect
// backoff gate used to provide.
func TestOneMemberBorderReadmitsRestartedRemote(t *testing.T) {
	w := newCoreWorld(t)
	pool := w.border(t, fleet.Config{
		ProbeInterval:  500 * time.Millisecond,
		ProbeTimeout:   300 * time.Millisecond,
		ReadmitBackoff: 2 * time.Second,
	})
	w.run(t, func() error {
		if err := w.echoThroughProxy("before the outage"); err != nil {
			return err
		}
		w.remote.Close()
		w.env.Clock.Sleep(3 * time.Second) // > EjectAfter probe rounds
		if ep := pool.Stats().Endpoints[0]; ep.Healthy || ep.Ejections == 0 {
			t.Errorf("endpoint = %+v, want ejected while the remote is down", ep)
		}
		if _, err := w.dom.openSecure("203.0.113.10:7"); !errors.Is(err, ErrAllRemotesDown) {
			t.Errorf("open during the outage: err = %v, want ErrAllRemotesDown", err)
		}
		w.restartRemote(t, 0)
		w.env.Clock.Sleep(10 * time.Second) // > the grown re-admission backoff
		if ep := pool.Stats().Endpoints[0]; !ep.Healthy {
			t.Errorf("endpoint = %+v, want re-admitted after the remote came back", ep)
		}
		if err := w.echoThroughProxy("after the outage"); err != nil {
			return fmt.Errorf("border did not recover: %w", err)
		}
		return nil
	})
}

// TestNoBorderNoStream: a proxy without an assembled border has no way
// across it.
func TestNoBorderNoStream(t *testing.T) {
	w := newCoreWorld(t)
	if _, err := w.dom.openSecure("203.0.113.10:7"); !errors.Is(err, ErrAllRemotesDown) {
		t.Errorf("err = %v, want ErrAllRemotesDown", err)
	}
}

func TestFleetDialPathThroughDomestic(t *testing.T) {
	w := newCoreWorld(t)
	// Second remote, same identity, on another host.
	standbyHost := w.n.AddHost("standby", "198.51.100.8", w.usZone, netsim.LinkConfig{Delay: 2 * time.Millisecond})
	id, err := w.ca.Issue("remote.scholarcloud.example", true)
	if err != nil {
		t.Fatal(err)
	}
	standby := &Remote{
		Env: w.env,
		DialHost: func(host string, port int) (net.Conn, error) {
			return standbyHost.DialTCP(fmt.Sprintf("%s:%d", host, port))
		},
		Secret:   []byte("tunnel-secret"),
		Identity: id,
	}
	sln, err := standbyHost.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	w.n.Scheduler().Go(func() { standby.Serve(sln) })

	pool := w.border(t, fleet.Config{ProbeInterval: 500 * time.Millisecond, Seed: 7},
		fleet.Endpoint{Name: "198.51.100.7:8443", Dial: func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.7:8443") }},
		fleet.Endpoint{Name: "198.51.100.8:8443", Dial: func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.8:8443") }})

	visit := func() error { return w.echoThroughProxy("via the fleet") }
	w.run(t, func() error {
		w.env.Clock.Sleep(time.Second) // let the pool warm
		for i := 0; i < 6; i++ {
			if err := visit(); err != nil {
				return err
			}
		}
		// Takedown of one remote: requests keep flowing through the other.
		w.remote.Close()
		pool.MarkDown("198.51.100.7:8443", "takedown")
		for i := 0; i < 6; i++ {
			if err := visit(); err != nil {
				return fmt.Errorf("visit %d after takedown: %w", i, err)
			}
		}
		return nil
	})
	if st := w.dom.Stats(); st.Streams != 12 {
		t.Errorf("domestic streams = %d, want 12", st.Streams)
	}
	if standby.Stats().StreamsOpened < 6 {
		t.Errorf("standby served %d streams, want >= 6", standby.Stats().StreamsOpened)
	}
	if pool.Stats().Rotations != 1 {
		t.Errorf("rotations = %d, want 1", pool.Stats().Rotations)
	}
}
