package experiments

import (
	"fmt"
	"testing"
	"time"

	"scholarcloud/internal/httpsim"
)

// TestResilienceSurvivesBurstLossAndCrash is the faults figure's
// acceptance criterion: under the combined scenario — a 40 s 25% loss
// burst on the border link plus an unannounced primary-remote crash —
// the historical fail-fast client path loses page loads, while the
// resilience layer (deadlines, backoff, hedged failover onto the
// surviving remote) completes at least 99% of them.
func TestResilienceSurvivesBurstLossAndCrash(t *testing.T) {
	measure := func(resilience bool) *FaultsResult {
		t.Helper()
		w := NewWorld(Config{
			Seed:          2017,
			FleetRemotes:  faultsRemotes,
			FaultScenario: "burst-loss+crash",
			Resilience:    resilience,
		})
		defer w.Close()
		r, err := w.MeasureFaults(faultsClients, 3)
		if err != nil {
			t.Fatalf("resilience=%v: %v", resilience, err)
		}
		return r
	}

	off := measure(false)
	on := measure(true)

	if off.Failed == 0 {
		t.Errorf("resilience-off baseline lost no page loads (%d visits) — the scenario is not stressing the fail-fast path", off.Visits)
	}
	if off.SuccessRate() >= 0.99 {
		t.Errorf("resilience-off success rate = %.1f%%, expected visible failure", 100*off.SuccessRate())
	}
	if on.SuccessRate() < 0.99 {
		t.Errorf("resilience-on success rate = %.1f%% (%d/%d failed), want >= 99%%",
			100*on.SuccessRate(), on.Failed, on.Visits)
	}
}

// TestHedgedRetryCompletesPageLoadOnMidTransferCrash seizes the primary
// remote while a page load is in flight and checks the resilience layer
// finishes the load anyway — the retried/hedged fetch lands on the
// surviving remote — with its counters showing the rescue.
func TestHedgedRetryCompletesPageLoadOnMidTransferCrash(t *testing.T) {
	w := NewWorld(Config{
		Seed:          11,
		FleetRemotes:  2,
		FaultScenario: "remote-crash", // arms gateway mode; the script is never injected
		Resilience:    true,
	})
	defer w.Close()
	f := w.ScholarCloudFactory()

	var st *httpsim.VisitStats
	err := w.Run(func() error {
		h := w.newScaleClient(0)
		m := f.New(h)
		defer m.Close()
		if err := prepare(m); err != nil {
			return err
		}
		browser := w.newBrowser(m)
		if warm := browser.Visit(f.URL); warm.Failed {
			return fmt.Errorf("warm-up visit failed")
		}
		// Seize the primary shortly after the next load starts, so its
		// in-flight fetches die mid-transfer.
		w.Env.Spawn.Go(func() {
			w.Env.Clock.Sleep(200 * time.Millisecond)
			w.TakedownFleetRemote(0)
		})
		st = browser.Visit(f.URL)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed {
		t.Fatal("page load failed despite the resilience layer")
	}
	snap := w.Obs.Snapshot()
	engaged := snap.Counter("core.domestic.retries") +
		snap.Counter("core.domestic.hedges") +
		snap.Counter("core.domestic.failovers") +
		snap.Counter("core.domestic.deadline_hits") +
		snap.Counter("fleet.dial_timeouts")
	if engaged == 0 {
		t.Error("no resilience counter moved — the load was never rescued")
	}
}

// TestFaultsFigureDeterministicAcrossWorkers re-runs the faults figure's
// sweep at different worker counts and requires byte-identical output —
// the guarantee `make determinism` enforces for the whole report.
func TestFaultsFigureDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world sweep")
	}
	run := func(workers int) string {
		t.Helper()
		res, err := RunSweep(SweepOptions{
			Workers: workers,
			Quality: Quick(),
			Figures: []string{"faults"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	p1 := run(1)
	p3 := run(3)
	if p1 != p3 {
		t.Errorf("faults figure differs between -parallel 1 and -parallel 3:\n--- p1\n%s\n--- p3\n%s", p1, p3)
	}
}
