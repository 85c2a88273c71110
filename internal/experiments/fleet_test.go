package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestOneRemoteIsTheDefaultWorld: the paper's single-remote deployment is
// a one-member pool, so FleetRemotes 0 and 1 must be the same world — same
// page-load times and the same settled metrics, not merely similar ones.
func TestOneRemoteIsTheDefaultWorld(t *testing.T) {
	render := func(cfg Config) string {
		w := newTestWorld(t, cfg)
		p, err := w.MeasureScalability(w.ScholarCloudFactory(), 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := w.SnapshotSettled()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%+v\n", *p)
		if err := snap.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if zero, one := render(Config{}), render(Config{FleetRemotes: 1}); zero != one {
		t.Errorf("Config{} and Config{FleetRemotes: 1} diverge:\n--- FleetRemotes 0\n%s\n--- FleetRemotes 1\n%s", zero, one)
	}
}

func TestFleetWorldServesScholar(t *testing.T) {
	w := newTestWorld(t, Config{FleetRemotes: 2})
	st := visitOnce(t, w, w.ScholarCloud(w.Client), scholarURL)
	if st.Failed {
		t.Fatalf("fleet-backed ScholarCloud visit failed: %v", st.Err)
	}
	fs := w.Fleet.Stats()
	if len(fs.Endpoints) != 2 || fs.Healthy() != 2 {
		t.Errorf("fleet stats = %+v", fs)
	}
	// Every stream the proxy opened was a pool pick.
	if streams := w.Domestic.Stats().Streams; streams == 0 || streams != fs.Picks {
		t.Errorf("domestic streams = %d, pool picks = %d, want equal and non-zero", streams, fs.Picks)
	}
}

func TestFleetRotationKeepsWorking(t *testing.T) {
	w := newTestWorld(t, Config{FleetRemotes: 2})
	m := w.ScholarCloud(w.Client)
	if st := visitOnce(t, w, m, scholarURL); st.Failed {
		t.Fatalf("visit before rotation failed: %v", st.Err)
	}
	w.RotateBlinding(9)
	if st := visitOnce(t, w, m, scholarURL); st.Failed {
		t.Fatalf("visit after rotation failed: %v", st.Err)
	}
}

func TestFleetTakedownUnderLoad(t *testing.T) {
	w := newTestWorld(t, Config{FleetRemotes: 2})
	res, err := w.MeasureFleetTakedown(6, 3, 0, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.VisitsAfter == 0 {
		t.Fatalf("no visits observed after the ejection window: %+v", res)
	}
	if res.FailedAfter != 0 {
		t.Errorf("%d/%d visits failed after the ejection window", res.FailedAfter, res.VisitsAfter)
	}
	if st := w.Fleet.Stats(); st.Endpoints[0].Healthy {
		t.Error("seized remote still marked healthy after the sweep")
	}
}

func TestFleetTakedownRequiresFleet(t *testing.T) {
	for _, remotes := range []int{0, 1} {
		w := newTestWorld(t, Config{FleetRemotes: remotes})
		if _, err := w.MeasureFleetTakedown(1, 1, 0, time.Second); err == nil {
			t.Fatalf("takedown measurement ran with FleetRemotes=%d: no remote would survive", remotes)
		}
	}
}

func TestEnforcementBlockMarksFleetEndpointsDown(t *testing.T) {
	w := newTestWorld(t, Config{FleetRemotes: 2})
	reg, ok := w.Registry.Lookup(ipDomestic)
	if !ok {
		t.Fatal("ScholarCloud is not registered")
	}
	err := w.Run(func() error {
		// A revocation blocks every registered endpoint IP; the OnBlock
		// chain must rotate the fleet off them immediately.
		return w.Enforcement.Revoke(reg.ICPNumber, "policy change")
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.Fleet.Stats().Healthy(); n != 0 {
		t.Errorf("%d fleet endpoints still healthy after revocation", n)
	}
}
