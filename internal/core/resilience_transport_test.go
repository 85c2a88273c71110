package core

import (
	"fmt"
	"net"
	"testing"
	"time"

	"scholarcloud/internal/carrier"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netsim"
)

// TestHedgeLandsOnDifferentRung is the transport-aware-hedge regression
// test: the active "blinded" rung stalls (a censor throttling the flow
// rather than resetting it), and the hedge fired after HedgeAfter must be
// issued on the next escalation rung — through the production wiring
// (AssembleBorder makes the carrier.Ladder both the fleet's Escalator and
// the proxy's NextTransport hook) — not on a second carrier of the
// stalled transport.
func TestHedgeLandsOnDifferentRung(t *testing.T) {
	w := newCoreWorld(t)
	acc := netsim.LinkConfig{Delay: 2 * time.Millisecond}

	// The blinded rung's remote accepts the carrier TCP connection and
	// then says nothing: every mux open on it stalls forever.
	stallHost := w.n.AddHost("stall", "198.51.100.9", w.usZone, acc)
	sln, err := stallHost.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	w.n.Scheduler().Go(func() {
		for {
			if _, err := sln.Accept(); err != nil {
				return
			}
		}
	})

	// The fallback rung is a live remote (the rendezvous gateway's role).
	standbyHost := w.n.AddHost("standby", "198.51.100.8", w.usZone, acc)
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
	rln, err := standbyHost.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	w.n.Scheduler().Go(func() { standby.Serve(rln) })

	dialStall := func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.9:8443") }
	dialStandby := func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.8:8443") }
	w.dom.Resil = &Resilience{HedgeAfter: 500 * time.Millisecond, Seed: 7}
	pool, ladder, err := w.dom.AssembleBorder(Border{
		Rungs: []carrier.Transport{
			carrier.NewBlinded(dialStall, w.dom.WrapCarrier),
			carrier.NewStatic(carrier.Rendezvous, dialStandby, w.dom.WrapCarrier),
		},
		Pool: fleet.Config{ProbeInterval: time.Hour, Seed: 7}, // no probe traffic: the hedge alone must switch rungs
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	defer ladder.Close()

	w.run(t, func() error {
		w.env.Clock.Sleep(time.Second) // let the pool pre-dial both rungs
		u, err := httpsim.ParseURL("http://203.0.113.10:80/")
		if err != nil {
			return err
		}
		resp, err := w.dom.fetchOrigin(u, &httpsim.Request{Method: "GET", Target: "/", Host: u.Host}, nil)
		if err != nil {
			return fmt.Errorf("fetch through stalled active rung: %w", err)
		}
		if string(resp.Body) != "hello" {
			return fmt.Errorf("body = %q", resp.Body)
		}
		return nil
	})

	if got := w.dom.hedges.Value(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	for _, ep := range pool.Stats().Endpoints {
		switch ep.Transport {
		case carrier.Blinded:
			if ep.StreamsOpened != 0 {
				t.Errorf("stalled rung completed %d stream opens", ep.StreamsOpened)
			}
		case carrier.Rendezvous:
			if ep.StreamsOpened != 1 {
				t.Errorf("hedge rung opened %d streams, want 1", ep.StreamsOpened)
			}
		}
	}
	if got := w.dom.failovers.Value(); got != 1 {
		t.Errorf("failovers = %d, want 1 (hedge attempt won)", got)
	}
}
