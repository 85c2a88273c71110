package experiments

import (
	"math"
	"reflect"
	"testing"
)

// borderTotal sums both directions of a world's border traffic so far.
func borderTotal(w *World) int64 {
	st := w.Border.Stats()
	return st.DirBytes[0] + st.DirBytes[1]
}

// TestFlowMatchesPacketSmallN pins the flow-level approximation against
// the packet-level truth at sizes where both are affordable: for each
// cell, one world runs the full packet-mode cohort and a second world
// (same seed) runs the same cohort in flow mode. Mean PLT must agree
// within 10% and total border bytes within 5% — the validation contract
// that justifies trusting flow mode where packet mode is unaffordable.
func TestFlowMatchesPacketSmallN(t *testing.T) {
	const (
		rounds  = 2
		sampled = 4
		seed    = 2017
	)
	for _, n := range []int{16, 30, 48} {
		n := n
		t.Run(fmtClients(n), func(t *testing.T) {
			wp := NewWorld(Config{Seed: seed})
			defer wp.Close()
			fp := wp.ScholarCloudFactory()
			before := borderTotal(wp)
			packet, err := wp.MeasureScalability(fp, n, rounds)
			if err != nil {
				t.Fatalf("packet mode: %v", err)
			}
			packetBytes := borderTotal(wp) - before
			if packet.Failed > 0 {
				t.Fatalf("packet mode: %d failed visits", packet.Failed)
			}

			wf := NewWorld(Config{Seed: seed})
			defer wf.Close()
			ff := wf.ScholarCloudFactory()
			flow, err := wf.MeasureFlowScalability(ff, n, rounds, sampled)
			if err != nil {
				t.Fatalf("flow mode: %v", err)
			}
			if flow.Failed > 0 {
				t.Fatalf("flow mode: %d failed sampled visits", flow.Failed)
			}
			if flow.Saturated {
				t.Errorf("flow mode reports saturation at n=%d", n)
			}

			if rel := relDiff(flow.PLT.Mean, packet.PLT.Mean); rel > 0.10 {
				t.Errorf("mean PLT: flow %.3fs vs packet %.3fs (%.1f%% apart, want <=10%%)",
					flow.PLT.Mean, packet.PLT.Mean, 100*rel)
			}
			if rel := relDiff(float64(flow.BorderBytes), float64(packetBytes)); rel > 0.05 {
				t.Errorf("border bytes: flow %d vs packet %d (%.1f%% apart, want <=5%%)",
					flow.BorderBytes, packetBytes, 100*rel)
			}
		})
	}
}

func fmtClients(n int) string { return "n=" + itoa(n) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestFlowSaturationDetection checks the analytic overload report: a
// cohort far beyond a single remote's capacity must be flagged as
// saturated, with a required-remotes floor above the deployment's
// actual tier size, while the sampled clients still complete (slowly —
// the processor-sharing clamp, not a hang).
func TestFlowSaturationDetection(t *testing.T) {
	w := NewWorld(Config{Seed: 2017})
	defer w.Close()
	f := w.ScholarCloudFactory()
	p, err := w.MeasureFlowScalability(f, 50_000, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Saturated {
		t.Errorf("50k-client cohort on a single remote not flagged saturated (remote util %.2f)",
			p.RemoteUtilization)
	}
	if p.RemoteUtilization < 1 {
		t.Errorf("remote utilization = %.2f, want >= 1", p.RemoteUtilization)
	}
	if p.RequiredRemotes <= len(w.flowRemoteHosts()) {
		t.Errorf("RequiredRemotes = %d, want > deployed %d", p.RequiredRemotes, len(w.flowRemoteHosts()))
	}
	if p.Failed > 0 {
		t.Errorf("%d sampled visits failed under saturation clamp", p.Failed)
	}
	if p.PLT.Mean <= p.Demand.SubPLT.Seconds() {
		t.Errorf("saturated sampled PLT mean %.3fs not above unloaded calibration PLT %.3fs",
			p.PLT.Mean, p.Demand.SubPLT.Seconds())
	}

	// The load must be withdrawn after the measurement: a fresh visit
	// runs at unloaded speed again.
	if up, down := w.Border.BackgroundLoad(); up != 0 || down != 0 {
		t.Errorf("background border load not reset: up=%f down=%f", up, down)
	}
}

// TestFlowScaleDeterminism runs the scale figure at -parallel 1 and 3
// and requires byte-identical output and identical merged metrics — the
// same worker-count-independence contract every other figure honors.
func TestFlowScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full scale-figure sweeps")
	}
	var base *SweepResult
	for _, workers := range []int{1, 3} {
		res, err := RunSweep(SweepOptions{
			Seed:    2017,
			Workers: workers,
			Quality: Quick(),
			Figures: []string{"scale"},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Output != base.Output {
			t.Errorf("workers=3 scale output differs from workers=1:\n--- w1 ---\n%s\n--- w3 ---\n%s",
				base.Output, res.Output)
		}
		if !reflect.DeepEqual(res.Obs, base.Obs) {
			t.Error("workers=3 merged obs snapshot differs from workers=1")
		}
	}
}
