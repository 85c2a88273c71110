package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The plans are what cmd/scholarbench renders; run each paper figure
// through a one-worker sweep at a minimal quality setting so their
// formatting and plumbing stay covered.
func TestReportsRun(t *testing.T) {
	q := Quality{
		FirstRuns:     1,
		Subsequent:    2,
		RTTProbes:     3,
		PLRVisits:     2,
		TrafficVisits: 1,
		ScaleRounds:   1,
		ScaleSweep:    []int{3},
	}
	render := func(fig string) string {
		t.Helper()
		res, err := RunSweep(SweepOptions{Seed: 42, Workers: 1, Quality: q, Figures: []string{fig}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}

	if fig3 := render("3"); !strings.Contains(fig3, "371") {
		t.Errorf("fig3 = %q", fig3)
	}
	if fig4 := render("4"); !strings.Contains(fig4, "shadowsocks") || !strings.Contains(fig4, "TCP-1") {
		t.Errorf("fig4 = %q", fig4)
	}
	fig5a := render("5a")
	for _, m := range methodNames {
		if !strings.Contains(fig5a, m) {
			t.Errorf("fig5a missing %s", m)
		}
	}
	if fig5b := render("5b"); !strings.Contains(fig5b, "RTT") {
		t.Errorf("fig5b = %q", fig5b)
	}
	if fig5c := render("5c"); !strings.Contains(fig5c, "direct-us") {
		t.Errorf("fig5c missing the uncensored baseline")
	}
	if fig6a := render("6a"); !strings.Contains(fig6a, "baseline") {
		t.Errorf("fig6a = %q", fig6a)
	}
	if fig6bc := render("6bc"); !strings.Contains(fig6bc, "mem before") {
		t.Errorf("fig6bc = %q", fig6bc)
	}
	if fig7 := render("7"); strings.Contains(fig7, "tor") {
		t.Error("fig7 includes tor (the paper excludes it)")
	}
	if ops := render("ops"); !strings.Contains(ops, "USD/day") {
		t.Errorf("ops = %q", ops)
	}
}

// TestPlanTable checks the plan table is the one figure list: names are
// unique and are FigureOrder, the sweep refuses a name outside it instead
// of silently running the rest, and the static method axis matches the
// world's.
func TestPlanTable(t *testing.T) {
	var names []string
	seen := map[string]bool{}
	for _, p := range sweepPlans(Quick()) {
		if seen[p.Name] {
			t.Errorf("figure %q planned twice", p.Name)
		}
		seen[p.Name] = true
		names = append(names, p.Name)
	}
	if !reflect.DeepEqual(names, FigureOrder) {
		t.Errorf("plan names = %v, FigureOrder = %v", names, FigureOrder)
	}

	_, err := RunSweep(SweepOptions{Workers: 1, Figures: []string{"5a", "typo"}})
	if !errors.Is(err, ErrUnknownFigure) || !strings.Contains(err.Error(), `"typo"`) {
		t.Errorf("RunSweep with an unknown figure: err = %v, want ErrUnknownFigure naming typo", err)
	}

	w := newTestWorld(t, Config{})
	var methods []string
	for _, f := range w.Methods() {
		methods = append(methods, f.Name)
	}
	if !reflect.DeepEqual(methods, methodNames) {
		t.Errorf("World.Methods = %v, methodNames = %v", methods, methodNames)
	}
}
