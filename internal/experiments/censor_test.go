package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"scholarcloud/internal/censor"
)

func censorWorld(seed uint64, profile string) *World {
	p, ok := censor.ProfileByName(profile)
	if !ok {
		panic("unknown censor profile " + profile)
	}
	return NewWorld(Config{
		Seed:       seed,
		Censor:     &p,
		Resilience: true,
	})
}

// acrossCensorSeeds runs an acceptance gate on three consecutive seeds:
// the censor is itself inconsistent, so a survival claim that holds for
// seed 2017 alone is not one.
func acrossCensorSeeds(t *testing.T, gate func(t *testing.T, seed uint64)) {
	for seed := uint64(2017); seed < 2020; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { gate(t, seed) })
	}
}

func timelineHas(tl []censor.Event, kind string) bool {
	for _, e := range tl {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// TestAdaptiveCensorSurvival is the censor figure's acceptance
// criterion: with every border running the aggressive adaptive
// controller — all of them escalating to active probing and
// fingerprint blocking under the cohort's own traffic — the carrier
// ladder still completes at least 99% of page loads.
func TestAdaptiveCensorSurvival(t *testing.T) { acrossCensorSeeds(t, testAdaptiveCensorSurvival) }

func testAdaptiveCensorSurvival(t *testing.T, seed uint64) {
	w := censorWorld(seed, "adaptive")
	defer w.Close()
	p, err := w.MeasureCensorship(censorClients, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.SuccessRate() < 0.99 {
		t.Errorf("success rate = %.2f%%, want >= 99%%", 100*p.SuccessRate())
	}
	for _, b := range p.Borders {
		if !timelineHas(b.Timeline, "escalate") {
			t.Errorf("border %s never escalated — the survival claim is vacuous", b.Border)
		}
		if b.Escalations == 0 {
			t.Errorf("border %s ladder never rotated off the blinded rung", b.Border)
		}
		if b.Visits == 0 {
			t.Errorf("border %s saw no visits", b.Border)
		}
	}
}

// TestRegionalInconsistency pins the paper's §2 observation in one
// world: a lenient coastal border and a strict adaptive inland border
// coexist, and only the inland cohort pays for it. Coastal clients
// never rotate transports and keep their mean PLT under 2x the clean
// baseline (the cohort's own fastest load); inland clients live
// through the full crackdown.
func TestRegionalInconsistency(t *testing.T) { acrossCensorSeeds(t, testRegionalInconsistency) }

func testRegionalInconsistency(t *testing.T, seed uint64) {
	w := censorWorld(seed, "regional")
	defer w.Close()
	p, err := w.MeasureCensorship(censorClients, 10)
	if err != nil {
		t.Fatal(err)
	}
	var coastal, inland *BorderOutcome
	for i := range p.Borders {
		switch p.Borders[i].Border {
		case "coastal":
			coastal = &p.Borders[i]
		case "inland":
			inland = &p.Borders[i]
		}
	}
	if coastal == nil || inland == nil {
		t.Fatalf("missing borders in %+v", p.Borders)
	}

	if coastal.Escalations != 0 {
		t.Errorf("lenient coastal border rotated transports %d times, want 0", coastal.Escalations)
	}
	if coastal.Failed != 0 {
		t.Errorf("coastal cohort failed %d/%d visits behind a lenient border", coastal.Failed, coastal.Visits)
	}
	if coastal.PLT.Mean >= 2*coastal.PLT.Min {
		t.Errorf("coastal mean PLT %.2fs >= 2x clean baseline %.2fs — lenient border is not lenient",
			coastal.PLT.Mean, coastal.PLT.Min)
	}

	if !timelineHas(inland.Timeline, "escalate") {
		t.Error("strict inland border never escalated")
	}
	if inland.Escalations == 0 {
		t.Error("inland cohort never rotated transports under the crackdown")
	}
	if inland.PLT.Mean <= coastal.PLT.Mean {
		t.Errorf("inland mean PLT %.2fs <= coastal %.2fs — the crackdown cost nothing",
			inland.PLT.Mean, coastal.PLT.Mean)
	}
}

// TestCensorTimelinesReproducible pins determinism at the figure's
// grain: the same seed replays the same per-border escalation
// timelines event for event, while two borders under the *identical*
// adaptive policy diverge — each controller ticks at its own
// seed-derived phase, so the borders escalate independently.
func TestCensorTimelinesReproducible(t *testing.T) {
	run := func() map[string][]censor.Event {
		w := censorWorld(2017, "adaptive")
		defer w.Close()
		p, err := w.MeasureCensorship(censorClients, 10)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]censor.Event, len(p.Borders))
		for _, b := range p.Borders {
			out[b.Border] = b.Timeline
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different timelines:\n%+v\nvs\n%+v", a, b)
	}
	if len(a["north"]) == 0 || len(a["south"]) == 0 {
		t.Fatalf("empty timelines: north=%d south=%d events", len(a["north"]), len(a["south"]))
	}
	if reflect.DeepEqual(a["north"], a["south"]) {
		t.Error("identical-policy borders produced identical timelines — controllers are not phase-independent")
	}
}
