// Benchmark harness: one benchmark per figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out.
//
// The figure benches report the reproduced quantity via b.ReportMetric —
// PLT in seconds, PLR in percent, traffic in KB — so `go test -bench=.`
// regenerates every row the paper plots. EXPERIMENTS.md records the
// paper-vs-measured comparison.
package scholarcloud

import (
	"fmt"
	"testing"

	"scholarcloud/internal/blinding"
	"scholarcloud/internal/carrier"
	"scholarcloud/internal/censor"
	"scholarcloud/internal/experiments"
	"scholarcloud/internal/survey"
)

// figureWorld builds a fresh world per benchmark (construction costs
// milliseconds; isolation keeps figures independent).
func figureWorld(b *testing.B, cfg experiments.Config) *experiments.World {
	b.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 2017
	}
	w := experiments.NewWorld(cfg)
	b.Cleanup(w.Close)
	return w
}

// BenchmarkFig3Survey regenerates the survey distribution (Fig. 3) and
// reports the bypass share.
func BenchmarkFig3Survey(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		rs := survey.Generate(survey.Respondents, uint64(i+1))
		share = survey.BypassShare(rs)
	}
	b.ReportMetric(share*100, "%bypass")
}

// BenchmarkFig4Session verifies and times the session-structure probe of
// Fig. 4 for every method.
func BenchmarkFig4Session(b *testing.B) {
	w := figureWorld(b, experiments.Config{})
	for _, f := range w.Methods() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ss, err := w.MeasureSessionStructure(f)
				if err != nil {
					b.Fatal(err)
				}
				if !ss.TCP3 {
					b.Fatal("no data connection observed")
				}
			}
		})
	}
}

// BenchmarkFig5aPLT reproduces Fig. 5a: first-time and subsequent page
// load times per method.
func BenchmarkFig5aPLT(b *testing.B) {
	w := figureWorld(b, experiments.Config{})
	for _, f := range w.Methods() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var first, sub float64
			for i := 0; i < b.N; i++ {
				r, err := w.MeasurePLT(f, 2, 6)
				if err != nil {
					b.Fatal(err)
				}
				first, sub = r.FirstTime.Mean, r.Subsequent.Mean
			}
			b.ReportMetric(first, "s/first-PLT")
			b.ReportMetric(sub, "s/subseq-PLT")
		})
	}
}

// BenchmarkFig5bRTT reproduces Fig. 5b: tunneled round-trip times.
func BenchmarkFig5bRTT(b *testing.B) {
	w := figureWorld(b, experiments.Config{})
	for _, f := range w.Methods() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var rtt float64
			for i := 0; i < b.N; i++ {
				r, err := w.MeasureRTT(f, 12)
				if err != nil {
					b.Fatal(err)
				}
				rtt = r.RTT.Mean
			}
			b.ReportMetric(rtt*1000, "ms/RTT")
		})
	}
}

// BenchmarkFig5cPLR reproduces Fig. 5c: packet loss rate per method plus
// the uncensored baseline.
func BenchmarkFig5cPLR(b *testing.B) {
	w := figureWorld(b, experiments.Config{})
	fs := append(w.Methods(), w.DirectBaseline())
	for _, f := range fs {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var plr float64
			for i := 0; i < b.N; i++ {
				r, err := w.MeasurePLR(f, 20)
				if err != nil {
					b.Fatal(err)
				}
				plr = r.PLR
			}
			b.ReportMetric(plr*100, "%PLR")
		})
	}
}

// BenchmarkFig6aTraffic reproduces Fig. 6a: client traffic per access.
func BenchmarkFig6aTraffic(b *testing.B) {
	w := figureWorld(b, experiments.Config{})
	fs := append([]experiments.Factory{w.DirectBaseline()}, w.Methods()...)
	for _, f := range fs {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var kb float64
			for i := 0; i < b.N; i++ {
				r, err := w.MeasureTraffic(f, 5)
				if err != nil {
					b.Fatal(err)
				}
				kb = r.BytesPerAccess / 1024
			}
			b.ReportMetric(kb, "KB/access")
		})
	}
}

// BenchmarkFig6bcClientCost reproduces Fig. 6b/6c: the modeled client CPU
// and memory, driven by measured traffic.
func BenchmarkFig6bcClientCost(b *testing.B) {
	opts := experiments.SweepOptions{Workers: 1, Quality: experiments.Quick(), Figures: []string{"6bc"}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Scalability reproduces Fig. 7's sweep at three
// representative concurrency levels (run cmd/scholarbench -full for the
// complete eight-point sweep).
func BenchmarkFig7Scalability(b *testing.B) {
	w := figureWorld(b, experiments.Config{})
	for _, f := range w.Methods() {
		if f.Name == "tor" {
			continue // as in the paper: Tor's servers are not controllable
		}
		f := f
		for _, n := range []int{5, 60, 120} {
			n := n
			b.Run(fmt.Sprintf("%s/clients-%d", f.Name, n), func(b *testing.B) {
				var plt float64
				for i := 0; i < b.N; i++ {
					p, err := w.MeasureScalability(f, n, 1)
					if err != nil {
						b.Fatal(err)
					}
					plt = p.PLT.Mean
				}
				b.ReportMetric(plt, "s/PLT")
			})
		}
	}
}

// BenchmarkFleetScalability extends Fig. 7 beyond the paper: mean PLT at
// 120 continuously-browsing clients as the remote-proxy fleet grows from
// the paper's single remote (a one-member pool).
func BenchmarkFleetScalability(b *testing.B) {
	const clients = 120
	for _, remotes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fleet-%d", remotes), func(b *testing.B) {
			w := figureWorld(b, experiments.Config{FleetRemotes: remotes})
			var plt float64
			for i := 0; i < b.N; i++ {
				p, err := w.MeasureFleetScalability(clients, 1)
				if err != nil {
					b.Fatal(err)
				}
				if p.Failed > 0 {
					b.Fatalf("%d failed page loads", p.Failed)
				}
				plt = p.PLT.Mean
			}
			b.ReportMetric(plt, "s/PLT")
		})
	}
}

// BenchmarkFaultsResilience runs the acceptance scenario of the faults
// figure — a 40s 25% loss burst plus an unannounced primary-remote crash
// — with the client resilience layer off and on, reporting the page-load
// success rate each arm achieves.
func BenchmarkFaultsResilience(b *testing.B) {
	const scenario = "burst-loss+crash"
	for _, resil := range []bool{false, true} {
		resil := resil
		name := "resilience-off"
		if resil {
			name = "resilience-on"
		}
		b.Run(name, func(b *testing.B) {
			var success float64
			for i := 0; i < b.N; i++ {
				w := figureWorld(b, experiments.Config{
					FleetRemotes:  2,
					FaultScenario: scenario,
					Resilience:    resil,
				})
				r, err := w.MeasureFaults(24, 1)
				if err != nil {
					b.Fatal(err)
				}
				success = r.SuccessRate()
				w.Close()
			}
			b.ReportMetric(success*100, "%success")
		})
	}
}

// BenchmarkTransportLadder runs the acceptance scenario of the
// transports figure — the censor whitelist-blocking every protocol the
// blinded carrier's wire image can land on — against an open censor
// baseline, reporting the page-load success rate the escalation ladder
// preserves at each stage.
func BenchmarkTransportLadder(b *testing.B) {
	for _, stage := range []string{"open", "fingerprint"} {
		stage := stage
		b.Run(stage, func(b *testing.B) {
			st, ok := experiments.TransportStageByName(stage)
			if !ok {
				b.Fatalf("unknown censor stage %q", stage)
			}
			var success float64
			for i := 0; i < b.N; i++ {
				w := figureWorld(b, experiments.Config{
					Transports: carrier.Known(),
					Resilience: true,
				})
				r, err := w.MeasureTransports(st, 12, 1)
				if err != nil {
					b.Fatal(err)
				}
				success = r.SuccessRate()
				w.Close()
			}
			b.ReportMetric(success*100, "%success")
		})
	}
}

// BenchmarkAdaptiveCensor runs the censor figure's acceptance scenario —
// every border of the adaptive profile escalating to fingerprint
// blocking under its cohort's own traffic — reporting the whole-world
// page-load success rate the carrier ladder's survival tuning holds.
func BenchmarkAdaptiveCensor(b *testing.B) {
	profile, ok := censor.ProfileByName("adaptive")
	if !ok {
		b.Fatal(`unknown censor profile "adaptive"`)
	}
	var success float64
	for i := 0; i < b.N; i++ {
		w := figureWorld(b, experiments.Config{
			Censor:     &profile,
			Resilience: true,
		})
		p, err := w.MeasureCensorship(6, 4)
		if err != nil {
			b.Fatal(err)
		}
		success = p.SuccessRate()
		w.Close()
	}
	b.ReportMetric(success*100, "%success")
}

// BenchmarkShardedCache runs the shards figure's acceptance claim — a
// K-shard tier with cache peering holds border traffic at the
// single-proxy level while splitting the user base K ways — at K = 1
// and K = 4, reporting mean PLT and border kilobytes.
func BenchmarkShardedCache(b *testing.B) {
	for _, k := range []int{1, 4} {
		k := k
		b.Run(fmt.Sprintf("shards-%d", k), func(b *testing.B) {
			var plt, kb float64
			for i := 0; i < b.N; i++ {
				w := figureWorld(b, experiments.Config{
					CacheMB:            64,
					Shards:             k,
					ShardSiblingFetch:  k > 1,
					ShardRehashOnDeath: k > 1,
				})
				p, err := w.MeasureShards(16, 1)
				if err != nil {
					b.Fatal(err)
				}
				if p.Failed > 0 {
					b.Fatalf("%d failed page loads", p.Failed)
				}
				plt, kb = p.PLT.Mean, float64(p.BorderBytes)/1024
				w.Close()
			}
			b.ReportMetric(plt, "s/PLT")
			b.ReportMetric(kb, "KB/border")
		})
	}
}

// BenchmarkFlowWorld runs the scale figure's 100k-client cell — a fluid
// cohort of 100k clients plus 3 sampled packet-level clients on the
// fleet-32 cache deployment — reporting mean sampled PLT and border
// bytes per client. This is the flow-level mode's hot path: one world
// carries a population three orders of magnitude beyond what
// packet-level simulation reaches.
func BenchmarkFlowWorld(b *testing.B) {
	var plt, kb float64
	for i := 0; i < b.N; i++ {
		w := figureWorld(b, experiments.Config{FleetRemotes: 32, CacheMB: 64})
		p, err := w.MeasureFlowScalability(w.ScholarCloudFactory(), 100_000, 2, 3)
		if err != nil {
			b.Fatal(err)
		}
		if p.Failed > 0 {
			b.Fatalf("%d failed sampled page loads", p.Failed)
		}
		plt, kb = p.PLT.Mean, p.BytesPerClient/1024
		w.Close()
	}
	b.ReportMetric(plt, "s/PLT")
	b.ReportMetric(kb, "KB/client")
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationBlinding compares ScholarCloud with and without
// message blinding: the unblinded tunnel dies to keyword filtering.
func BenchmarkAblationBlinding(b *testing.B) {
	b.Run("blinded", func(b *testing.B) {
		w := figureWorld(b, experiments.Config{})
		ok := 0
		for i := 0; i < b.N; i++ {
			r, err := w.MeasurePLT(w.ScholarCloudFactory(), 1, 1)
			if err == nil && r.Subsequent.N > 0 {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N)*100, "%success")
	})
	b.Run("no-blinding", func(b *testing.B) {
		w := figureWorld(b, experiments.Config{ScholarCloudNoBlinding: true})
		ok := 0
		for i := 0; i < b.N; i++ {
			if _, err := w.MeasurePLT(w.ScholarCloudFactory(), 1, 1); err == nil {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N)*100, "%success")
	})
}

// BenchmarkAblationSSKeepAlive shows the paper's root-cause claim for
// Shadowsocks' PLT: lengthening the keep-alive removes the per-visit
// re-authentication and its latency.
func BenchmarkAblationSSKeepAlive(b *testing.B) {
	for _, ka := range []struct {
		name string
		d    int // seconds
	}{{"10s-default", 0}, {"600s", 600}} {
		ka := ka
		b.Run(ka.name, func(b *testing.B) {
			cfg := experiments.Config{}
			if ka.d > 0 {
				cfg.SSKeepAlive = 600e9
			}
			w := figureWorld(b, cfg)
			var f experiments.Factory
			for _, m := range w.Methods() {
				if m.Name == "shadowsocks" {
					f = m
				}
			}
			var sub float64
			for i := 0; i < b.N; i++ {
				r, err := w.MeasurePLT(f, 1, 4)
				if err != nil {
					b.Fatal(err)
				}
				sub = r.Subsequent.Mean
			}
			b.ReportMetric(sub, "s/subseq-PLT")
		})
	}
}

// BenchmarkAblationDomesticPenalty quantifies §1's claim that full-tunnel
// VPNs slow domestic browsing.
func BenchmarkAblationDomesticPenalty(b *testing.B) {
	w := figureWorld(b, experiments.Config{})
	var direct, viaVPN float64
	for i := 0; i < b.N; i++ {
		d, v, err := w.DomesticPenalty()
		if err != nil {
			b.Fatal(err)
		}
		direct, viaVPN = d.Seconds(), v.Seconds()
	}
	b.ReportMetric(direct, "s/direct")
	b.ReportMetric(viaVPN, "s/via-vpn")
	b.ReportMetric(viaVPN/direct, "x-penalty")
}

// --- Microbenchmarks on the primitives -------------------------------------

// BenchmarkBlindingSchemes measures codec throughput: blinding must add
// negligible CPU on the proxies.
func BenchmarkBlindingSchemes(b *testing.B) {
	buf := make([]byte, 64*1024)
	out := make([]byte, len(buf))
	for _, s := range []blinding.Scheme{
		blinding.NewByteMap([]byte("k")),
		blinding.NewXORStream([]byte("k")),
		blinding.Identity{},
	} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			enc := s.NewEncoder()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				enc.Apply(out, buf)
			}
		})
	}
}
