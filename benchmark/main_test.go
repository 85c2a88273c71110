package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"scholarcloud/benchmark/spans"
	"scholarcloud/benchmark/tap"
)

// smokePlan shrinks a workload to about ops operations per client in one
// measured segment after one warm-up segment.
func smokePlan(segOps, ops int) plan {
	return plan{seed: 3, scale: float64(ops) / float64(segOps), segments: 1, warmup: 1, clients: 2}
}

// Every socket workload must run end to end against the program as it
// is: set-up, warm-up, a measured segment, every correctness gate.
func TestSocketWorkloadsSmoke(t *testing.T) {
	for i := range socketWorkloads {
		spec := &socketWorkloads[i]
		t.Run(spec.name, func(t *testing.T) {
			ops := 100
			if spec.bodyBytes > 64<<10 {
				ops = 20
			}
			r, err := runSocket(spec, smokePlan(spec.segOps, ops))
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("violations: %v (failed %d of %d)", r.violations, r.failed, r.attempted)
			}
			if want := int64(2 * ops); r.attempted != want {
				t.Errorf("attempted %d operations, want %d", r.attempted, want)
			}
			for _, m := range endToEnd {
				if v := r.e2e[m.name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive number", m.name, v)
				}
			}
			if v, ok := r.layers["loadgen.p99_ms"]; ok {
				t.Errorf("a %d-operation segment reported a p99 (%v)", 2*ops, v)
			}
			switch {
			case spec.hotKeys > 0:
				if r.layers["cache.hit_ratio"] != 1 || r.layers["border.up_kb_per_op"] != 0 {
					t.Errorf("hot set: hit ratio %v, border up %v KiB/op; want 1 and 0",
						r.layers["cache.hit_ratio"], r.layers["border.up_kb_per_op"])
				}
			case spec.cacheMB > 0:
				// The cache is eight independently budgeted shards: full
				// overall, a shard may still have room for one more object.
				if ev := r.layers["cache.evictions_per_op"]; r.layers["cache.hit_ratio"] != 0 || r.layers["core.streams_per_op"] != 1 || ev < 0.9 || ev > 1.1 {
					t.Errorf("misses on a full cache: hit ratio %v, streams/op %v, evictions/op %v; want 0, 1, about 1",
						r.layers["cache.hit_ratio"], r.layers["core.streams_per_op"], r.layers["cache.evictions_per_op"])
				}
			default:
				if r.layers["core.streams_per_op"] != 0 || r.layers["mux.frames_per_op"] < 2 {
					t.Errorf("persistent tunnel: streams/op %v, frames/op %v; want 0 and >= 2",
						r.layers["core.streams_per_op"], r.layers["mux.frames_per_op"])
				}
			}
		})
	}
}

var smokeCells = []simCell{
	{name: "sc4", clients: 4, measure: scalability("scholarcloud")},
}

func TestSimSweepSmoke(t *testing.T) {
	p := plan{seed: 3, scale: 1, segments: 2, warmup: 1, clients: 1}
	r, err := runSim(smokeCells, p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("violations: %v", r.violations)
	}
	if want := int64(2 * 4 * simRounds); r.attempted != want {
		t.Errorf("attempted %d visits, want %d", r.attempted, want)
	}
	for _, name := range []string{"setup_s", "ops_per_s", "p50_ms", "cpu_us_per_op", "allocs_per_op", "border_kb_per_op"} {
		if v := r.e2e[name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive number", name, v)
		}
	}
	// The same seed must simulate the same visits and border bytes in
	// another run; a different seed another world.
	again, err := runSim(smokeCells, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.e2e["border_kb_per_op"] != again.e2e["border_kb_per_op"] {
		t.Errorf("same seed, different border traffic: %v vs %v KiB/op", r.e2e["border_kb_per_op"], again.e2e["border_kb_per_op"])
	}
	p.seed = 4
	other, err := runSim(smokeCells, p)
	if err != nil {
		t.Fatal(err)
	}
	if other.e2e["border_kb_per_op"] == r.e2e["border_kb_per_op"] {
		t.Errorf("seeds 3 and 4 moved the same %v KiB/op across the border", r.e2e["border_kb_per_op"])
	}
}

// A pass that does not repeat the first one exactly must fail the run.
func TestSimRepeatGate(t *testing.T) {
	r := &result{}
	first := []cellRun{{visits: 8, border: 1000}}
	checkRepeat(r, smokeCells, first, []cellRun{{visits: 8, border: 1000}}, 1)
	if len(r.violations) != 0 {
		t.Fatalf("identical pass flagged: %v", r.violations)
	}
	checkRepeat(r, smokeCells, first, []cellRun{{visits: 8, border: 1001}}, 2)
	checkRepeat(r, smokeCells, first, []cellRun{{visits: 8, border: 1000, failed: 1}}, 3)
	if len(r.violations) != 2 {
		t.Errorf("a changed byte count and a failed visit gave %d violations: %v", len(r.violations), r.violations)
	}
}

// Traced socket runs must split every operation at the border without
// losing any of it, and nest the spans as documented.
func TestTracedSpansCoverTheOperation(t *testing.T) {
	for _, name := range []string{"tunnel_small", "gateway_hot", "gateway_miss"} {
		t.Run(name, func(t *testing.T) {
			var spec *socketSpec
			for i := range socketWorkloads {
				if socketWorkloads[i].name == name {
					spec = &socketWorkloads[i]
				}
			}
			rec := spans.NewRecorder()
			p := plan{seed: 5, scale: float64(30*tracedShare) / float64(spec.segOps), segments: 1, warmup: 1, clients: 1}
			r, err := traceSocket(spec, p, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("violations: %v", r.violations)
			}
			byOp := map[int64][]spans.Span{}
			for _, sp := range rec.Spans() {
				byOp[sp.OpID] = append(byOp[sp.OpID], sp)
			}
			if len(byOp) != 90 {
				t.Fatalf("%d traced operations, want 90 (3 segments of 30)", len(byOp))
			}
			withBorder := 0
			for op, sps := range byOp {
				var root spans.Span
				var covered int64
				ids := map[int64]spans.Span{}
				for _, sp := range sps {
					ids[sp.ID] = sp
				}
				for _, sp := range sps {
					switch sp.Name {
					case "op":
						root = sp
					case "domestic.up", "border.rtt", "domestic.down":
						covered += sp.End - sp.Start
						if ids[sp.Parent].Name != "op" {
							t.Fatalf("op %d: %s has parent %q", op, sp.Name, ids[sp.Parent].Name)
						}
						if sp.Name == "border.rtt" {
							withBorder++
						}
					case "origin.serve":
						parent := ids[sp.Parent]
						if parent.Name != "border.rtt" || sp.Start < parent.Start || sp.End > parent.End {
							t.Fatalf("op %d: origin.serve %+v not inside its border.rtt %+v", op, sp, parent)
						}
					}
				}
				total := root.End - root.Start
				if total <= 0 || covered < total*95/100 || covered > total*105/100 {
					t.Fatalf("op %d: children cover %d ns of a %d ns operation", op, covered, total)
				}
			}
			if hot := spec.hotKeys > 0; hot == (withBorder > 0) {
				t.Errorf("%d operations crossed the border (hot set: %v)", withBorder, hot)
			}
			for _, m := range []string{"deploy.domestic_self_us", "bench.trace_overhead_pct"} {
				if _, ok := r.layers[m]; !ok {
					t.Errorf("%s not reported", m)
				}
			}
			if spec.hotKeys == 0 && !(r.layers["deploy.remote_self_us"] > 0 && r.layers["bench.origin_self_us"] > 0) {
				t.Errorf("remote %v us, origin %v us; want both positive",
					r.layers["deploy.remote_self_us"], r.layers["bench.origin_self_us"])
			}
		})
	}
}

// Carrier pre-dial, tunnel opening and cache fill cross the border
// before the first measured operation: they must land in set-up, and the
// per-operation traffic of two equal windows must agree exactly.
func TestSetupTrafficIsNotChargedToOperations(t *testing.T) {
	spec := &socketWorkloads[0] // tunnel_small
	top, err := buildTopology(spec, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close()
	if err := top.primeTopology(9); err != nil {
		t.Fatal(err)
	}
	setup := top.border.Bytes()
	if setup == 0 {
		t.Fatal("opening two CONNECT tunnels moved no bytes across the border")
	}
	window := func() int64 {
		before := top.border.Bytes()
		if _, _, _, err := top.runSegment(50, 0, nil); err != nil {
			t.Fatalf("segment: %v", err)
		}
		return top.border.Bytes() - before
	}
	a, b := window(), window()
	if a != b {
		t.Errorf("two windows of 100 operations moved %d and %d border bytes", a, b)
	}
	perOp := float64(a) / 100
	if body := float64(spec.bodyBytes); perOp < body || perOp > 1.5*body {
		t.Errorf("%.0f border bytes per operation for a %d-byte body", perOp, spec.bodyBytes)
	}
	up, down := top.border.Counts(tap.Up), top.border.Counts(tap.Down)
	if up.BytesIn != up.BytesOut || down.BytesIn != down.BytesOut {
		t.Errorf("tap lost bytes: up %+v down %+v", up, down)
	}
}

func TestSummariseAdjustsTimingsAndTotalsCounts(t *testing.T) {
	ref := reference{nominalNs: 1000, sensitivity: 1}
	var segs []segment
	for i := 0; i < 10; i++ {
		segs = append(segs, segment{
			ops: 1000, work: clocks{wall: 1e9, cpu: 1e9}, p50: 1, p99: 5, border: 1024 * 1000,
			refWall: 1e6, refOps: 1000, // 1000 ns per reference op: nominal
			proc: procSnap{mallocs: 8000, bytes: 4096 * 1000},
		})
	}
	// A noisy neighbour slows three segments to a third of the speed,
	// workload and reference alike: the adjustment must cancel it.
	for _, i := range []int{2, 5, 6} {
		segs[i].work = clocks{wall: 3e9, cpu: 3e9}
		segs[i].p50, segs[i].p99 = 3, 15
		segs[i].refWall = 3e6
	}
	segs[0].proc.mallocs = 8100 // counts are totals: an odd segment shows
	segs[1].proc.mallocs, segs[1].refMallocs = 8500, 500
	r := &result{layers: map[string]float64{}}
	r.summarise(ref, 4e9, 2, 0, segs)
	want := map[string]float64{
		"setup_s": 2, "ops_per_s": 1000, "p50_ms": 1, "cpu_us_per_op": 1000,
		"allocs_per_op": 8.01, "alloc_kb_per_op": 4, "border_kb_per_op": 1,
	}
	if len(r.e2e) != len(endToEnd) {
		t.Errorf("%d end-to-end values for %d metrics", len(r.e2e), len(endToEnd))
	}
	for name, w := range want {
		if got := r.e2e[name]; got < w*0.9999 || got > w*1.0001 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if got := r.layers["loadgen.p99_ms"]; got < 4.9995 || got > 5.0005 {
		t.Errorf("loadgen.p99_ms = %v, want 5", got)
	}
	if r.attempted != 10000 || r.failed != 0 || r.slowdown != 1 {
		t.Errorf("attempted %d failed %d slowdown %v", r.attempted, r.failed, r.slowdown)
	}
	// A regression slows the workload and not the reference: it must show
	// in full.
	for i := range segs {
		segs[i].work.wall = segs[i].work.wall * 11 / 10
	}
	r2 := &result{}
	r2.summarise(ref, 4e9, 1, 1024*5000, segs)
	if got := r2.e2e["ops_per_s"]; got < 908 || got > 910 {
		t.Errorf("ops_per_s after a 10%% regression = %v, want 909", got)
	}
	// Set-up traffic is amortised over the measured operations.
	if got := r2.e2e["border_kb_per_op"]; got != 1.5 {
		t.Errorf("border_kb_per_op with 5000 KiB of set-up traffic over 10000 ops = %v, want 1.5", got)
	}
}

func TestSlowdown(t *testing.T) {
	ref := reference{nominalNs: 100, sensitivity: 0.5}
	if got := ref.slowdown(400*time.Microsecond, 1000); got != 2 {
		t.Errorf("reference at 4x nominal with sensitivity 0.5: slowdown %v, want 2", got)
	}
	if got := ref.slowdown(0, 0); got != 1 {
		t.Errorf("no reference run: slowdown %v, want 1", got)
	}
}

// BENCHMARK.json is what the driver reads; the tables in this package are
// what the program prints. They must name the same things.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, op counts are sized for %d", doc.RunSeconds, nominalSeconds)
	}
	check := func(kind string, got []entry, want []metric, bounds bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			better := "lower"
			if w.higherBetter {
				better = "higher"
			}
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != better || (bounds && g.Bound != w.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer(), false)
	names := workloadNames()
	if len(doc.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(names))
	}
	whys := map[string]string{"sim_sweep": simWhy}
	for _, s := range socketWorkloads {
		whys[s.name] = s.why
	}
	for i, w := range doc.Workloads {
		if w.Name != names[i] || w.Why != whys[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, names[i], whys[names[i]])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
