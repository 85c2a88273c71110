package core

import (
	"net"
	"testing"
	"time"

	"scholarcloud/internal/carrier"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/obs"
)

// TestAssembleBorderTuning pins what AssembleBorder resolves for each kind
// of border: a laddered one gets the Ladder* tuning wherever the caller
// left a value zero and always bounds its dials; a plain one bounds them
// iff the proxy is resilient.
func TestAssembleBorderTuning(t *testing.T) {
	w := newCoreWorld(t)
	dial := func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.7:8443") }

	cases := []struct {
		name     string
		resil    *Resilience
		laddered bool
		pool     fleet.Config

		dialTimeout, probeInterval, probeTimeout time.Duration
		hedgeAfter, requestTimeout               time.Duration // of resil, after assembly
	}{
		{name: "ladder on a fail-fast proxy still bounds dials", laddered: true,
			dialTimeout: LadderDialTimeout, probeInterval: LadderProbeInterval, probeTimeout: LadderProbeTimeout},
		{name: "ladder, zero tuning", resil: &Resilience{}, laddered: true,
			dialTimeout: LadderDialTimeout, probeInterval: LadderProbeInterval, probeTimeout: LadderProbeTimeout,
			hedgeAfter: LadderHedgeAfter, requestTimeout: LadderRequestTimeout},
		{name: "ladder, explicit values win", laddered: true,
			resil: &Resilience{HedgeAfter: time.Second, RequestTimeout: 20 * time.Second},
			pool:  fleet.Config{DialTimeout: 4 * time.Second, ProbeInterval: 7 * time.Second, ProbeTimeout: time.Second},

			dialTimeout: 4 * time.Second, probeInterval: 7 * time.Second, probeTimeout: time.Second,
			hedgeAfter: time.Second, requestTimeout: 20 * time.Second},
		{name: "plain on a fail-fast proxy dials unbounded",
			pool:          fleet.Config{DialTimeout: 4 * time.Second},
			probeInterval: 5 * time.Second, probeTimeout: 2 * time.Second},
		{name: "plain, resilient: the Resilience default", resil: &Resilience{},
			dialTimeout: 3 * time.Second, probeInterval: 5 * time.Second, probeTimeout: 2 * time.Second},
		{name: "plain, resilient, explicit bound", resil: &Resilience{DialTimeout: 6 * time.Second},
			dialTimeout: 6 * time.Second, probeInterval: 5 * time.Second, probeTimeout: 2 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &Domestic{Env: w.env, Secret: []byte("tunnel-secret"), Resil: tc.resil}
			b := Border{Pool: tc.pool}
			if tc.laddered {
				b.Rungs = []carrier.Transport{
					carrier.NewBlinded(dial, d.WrapCarrier),
					carrier.NewStatic(carrier.Rendezvous, dial, d.WrapCarrier),
				}
			} else {
				b.Remotes = []fleet.Endpoint{{Name: "198.51.100.7:8443", Dial: dial}}
			}
			pool, ladder, err := d.AssembleBorder(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if d.Fleet != pool {
				t.Error("the proxy was not handed the pool")
			}
			if (ladder != nil) != tc.laddered || (d.NextTransport != nil) != tc.laddered {
				t.Fatalf("ladder = %v, NextTransport set = %v; laddered = %v", ladder, d.NextTransport != nil, tc.laddered)
			}
			if ladder != nil {
				defer ladder.Close()
			}

			got := pool.Config()
			if got.DialTimeout != tc.dialTimeout || got.ProbeInterval != tc.probeInterval || got.ProbeTimeout != tc.probeTimeout {
				t.Errorf("pool dial/probe/probe-timeout = %v/%v/%v, want %v/%v/%v",
					got.DialTimeout, got.ProbeInterval, got.ProbeTimeout,
					tc.dialTimeout, tc.probeInterval, tc.probeTimeout)
			}
			if tc.laddered && got.Escalate != fleet.Escalator(ladder) {
				t.Error("the pool does not escalate through the ladder")
			}
			if tc.resil != nil && (tc.resil.HedgeAfter != tc.hedgeAfter || tc.resil.RequestTimeout != tc.requestTimeout) {
				t.Errorf("hedge/request = %v/%v, want %v/%v",
					tc.resil.HedgeAfter, tc.resil.RequestTimeout, tc.hedgeAfter, tc.requestTimeout)
			}
			for i, ep := range pool.Stats().Endpoints {
				want := ""
				if tc.laddered {
					want = b.Rungs[i].Name()
				}
				if ep.Transport != want {
					t.Errorf("endpoint %s carries transport label %q, want %q", ep.Name, ep.Transport, want)
				}
			}
		})
	}
}

// TestAssembleBorderLadderWiring checks the ladder half of the assembly:
// the caller's LadderConfig override reaches the ladder (with Env filled
// in, which OnSwitch delivery needs), the proxy's hedge hook is the
// ladder's, and a nil registry publishes nothing — the censor regions
// share one registry and rely on that to keep the un-prefixed names from
// summing across borders.
func TestAssembleBorderLadderWiring(t *testing.T) {
	w := newCoreWorld(t)
	dial := func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.7:8443") }
	rungs := func(d *Domestic) []carrier.Transport {
		return []carrier.Transport{
			carrier.NewBlinded(dial, d.WrapCarrier),
			carrier.NewStatic(carrier.Rendezvous, dial, d.WrapCarrier),
			carrier.NewStatic(carrier.DNSTunnel, dial, d.WrapCarrier),
		}
	}
	reg := obs.NewRegistry()
	switched := make(chan string, 1)

	published := &Domestic{Env: w.env, Secret: []byte("tunnel-secret")}
	pool, ladder, err := published.AssembleBorder(Border{
		Rungs: rungs(published),
		Ladder: carrier.LadderConfig{
			TripAfter: 1,
			OnSwitch:  func(from, to, _ string) { switched <- from + ">" + to },
		},
		Pool: fleet.Config{ProbeInterval: time.Hour},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	defer ladder.Close()

	silent := &Domestic{Env: w.env, Secret: []byte("tunnel-secret")}
	pool2, ladder2, err := silent.AssembleBorder(Border{Rungs: rungs(silent)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	defer ladder2.Close()

	if got := published.NextTransport(); got != carrier.Rendezvous {
		t.Errorf("NextTransport = %q, want the rung above the active one", got)
	}
	ladder.RecordFailure(carrier.Blinded) // TripAfter 1: one strike escalates
	if got := ladder.ActiveName(); got != carrier.Rendezvous {
		t.Errorf("active rung after one failure = %q: the LadderConfig override did not reach the ladder", got)
	}
	if got := published.NextTransport(); got != carrier.DNSTunnel {
		t.Errorf("NextTransport after escalation = %q, want %q", got, carrier.DNSTunnel)
	}
	select {
	case got := <-switched:
		if got != "blinded>rendezvous" {
			t.Errorf("OnSwitch saw %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Error("OnSwitch never delivered")
	}

	snap := reg.Snapshot()
	if got := snap.Counter("fleet.healthy_endpoints"); got != 3 {
		t.Errorf("fleet.healthy_endpoints = %d, want the published border's 3 only", got)
	}
	if got := snap.Counter("carrier.ladder.escalations"); got != 1 {
		t.Errorf("carrier.ladder.escalations = %d, want 1", got)
	}
}

func TestAssembleBorderRejectsBothKinds(t *testing.T) {
	w := newCoreWorld(t)
	dial := func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.7:8443") }
	_, _, err := w.dom.AssembleBorder(Border{
		Remotes: []fleet.Endpoint{{Name: "r", Dial: dial}},
		Rungs:   []carrier.Transport{carrier.NewBlinded(dial, w.dom.WrapCarrier)},
	}, nil)
	if err == nil {
		t.Fatal("a border with both remotes and rungs was accepted")
	}
	if w.dom.Fleet != nil {
		t.Error("a rejected border still handed the proxy a pool")
	}
}
