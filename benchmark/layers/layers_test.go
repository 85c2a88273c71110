package layers

import (
	"strings"
	"testing"

	"scholarcloud/benchmark/spans"
)

// Every driver must run against the program as it is and report every
// metric it names; the values themselves are the benchmark's business.
func TestRunReportsEveryMetric(t *testing.T) {
	rec := spans.NewRecorder()
	out, err := Run(0.02, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Metrics {
		name := m.Name
		v, ok := out[name]
		if !ok {
			t.Errorf("%s: not reported", name)
			continue
		}
		if strings.Contains(name, "allocs") {
			if v < 0 {
				t.Errorf("%s = %v", name, v)
			}
		} else if v <= 0 {
			t.Errorf("%s = %v, want a positive cost", name, v)
		}
	}
	if len(out) != len(Metrics) {
		t.Errorf("Run reported %d metrics, Metrics lists %d", len(out), len(Metrics))
	}
	seen := map[string]bool{}
	for _, sp := range rec.Spans() {
		if !strings.HasPrefix(sp.Name, "layer.") || sp.End < sp.Start {
			t.Fatalf("bad driver span %+v", sp)
		}
		seen[sp.Name] = true
	}
	if len(seen) < 20 {
		t.Errorf("only %d distinct layer spans recorded", len(seen))
	}
	for name, v := range out {
		t.Logf("%-32s %12.3f", name, v)
	}
}
