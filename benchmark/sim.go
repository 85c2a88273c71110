package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"scholarcloud"
	"scholarcloud/benchmark/spans"
	"scholarcloud/benchmark/stats"
)

// simCell is one world of the sim_sweep catalogue: built, measured and
// closed through the public facade, with the same seed every pass.
type simCell struct {
	name    string
	opts    scholarcloud.Options
	clients int // at the nominal run length
	measure func(s *scholarcloud.Simulation, clients int) (visits, failed int, err error)
}

const simRounds = 2

func scalability(method string) func(*scholarcloud.Simulation, int) (int, int, error) {
	return func(s *scholarcloud.Simulation, clients int) (int, int, error) {
		res, err := s.MeasureScalability(method, clients, simRounds)
		if err != nil {
			return 0, 0, err
		}
		return res.PLT.N + res.Failed, res.Failed, nil
	}
}

func shardLoad(s *scholarcloud.Simulation, clients int) (int, int, error) {
	res, err := s.MeasureShards(clients, simRounds)
	if err != nil {
		return 0, 0, err
	}
	return res.PLT.N + res.Failed, res.Failed, nil
}

// simCatalogue is the fixed set of worlds one sim_sweep pass runs: every
// access method of the paper at Fig. 7's concurrency, plus the fleet,
// cache and shard extensions. vclock, netsim, gfw and the VPN, Tor and
// Shadowsocks stacks do all their work here and none in the socket
// workloads. Each half lists its slowest cell first so two workers finish
// it together.
var simCatalogue = []simCell{
	{name: "tor30", clients: 30, measure: scalability("tor")},
	{name: "fleet4", clients: 120, measure: scalability("scholarcloud"),
		opts: scholarcloud.Options{Fleet: &scholarcloud.FleetOptions{Remotes: 4, SessionsPerRemote: 2}}},
	{name: "ss60", clients: 60, measure: scalability("shadowsocks")},
	// simHalf: the reference runs here and after the last cell.
	{name: "ovpn60", clients: 60, measure: scalability("openvpn")},
	{name: "vpn60", clients: 60, measure: scalability("native-vpn")},
	{name: "sc60", clients: 60, measure: scalability("scholarcloud")},
	{name: "shards4", clients: 60, measure: shardLoad,
		opts: scholarcloud.Options{
			Cache:  &scholarcloud.CacheOptions{CapacityMB: 64},
			Shards: &scholarcloud.ShardOptions{Count: 4, SiblingFetch: true, RehashOnDeath: true},
		}},
	{name: "cache60", clients: 60, measure: scalability("scholarcloud"),
		opts: scholarcloud.Options{Cache: &scholarcloud.CacheOptions{CapacityMB: 64}}},
}

// simHalf splits the catalogue into two halves that each keep two workers
// busy for about a second; the reference runs after each half.
const simHalf = 3

// simRefHops is the reference's size per half pass: about 150 ms.
const simRefHops = 60000

const simWhy = "one pass per segment over 8 simulated worlds (5 access methods at Fig. 7 load, fleet, cache, shards): all vclock/netsim/gfw/VPN/Tor work"

// cellRun is one cell of one pass.
type cellRun struct {
	visits, failed     int
	border             int64 // World.Border bytes, both directions
	packets, retrans   int64
	muxFrames          int64
	virtual            time.Duration
	build, run, closed time.Duration
	start              time.Time
}

func (c *cellRun) wall() time.Duration { return c.build + c.run + c.closed }

// runCell builds, measures and closes one world.
func runCell(cell *simCell, seed uint64, clients int) (cellRun, error) {
	var c cellRun
	opts := cell.opts
	opts.Seed = seed
	c.start = time.Now()
	s := scholarcloud.NewSimulation(opts)
	virtual0 := s.World.Env.Clock.Now()
	built := time.Now()
	visits, failed, err := cell.measure(s, clients)
	ran := time.Now()
	if err == nil {
		c.visits, c.failed = visits, failed
		c.border = s.World.Border.Stats().Bytes
		sn := s.Snapshot()
		c.packets = sn.Counter("netsim.packets")
		c.retrans = sn.Counter("netsim.tcp.retransmits")
		c.muxFrames = sn.Counter("mux.domestic.frames_out") + sn.Counter("mux.remote.frames_out")
		c.virtual = s.World.Env.Clock.Now().Sub(virtual0)
	}
	s.Close()
	c.build, c.run, c.closed = built.Sub(c.start), ran.Sub(built), time.Since(ran)
	if err != nil {
		return c, fmt.Errorf("cell %s: %w", cell.name, err)
	}
	return c, nil
}

// cellSeed derives a cell's world seed from the run's seed; it is the
// same every pass, so every pass simulates the same visits.
func cellSeed(seed uint64, i int) uint64 { return seed*1000003 + uint64(i) + 1 }

// passClocks is where one pass's time and allocations went.
type passClocks struct {
	work                 clocks
	refWall              time.Duration
	refOps               int64
	refMallocs, refBytes uint64
}

// runPass runs every cell of the catalogue once, each half on workers
// goroutines with refHops of the reference after it, and returns the runs
// in catalogue order.
func runPass(cells []simCell, p plan, workers, refHops int) ([]cellRun, passClocks, error) {
	var pc passClocks
	runs := make([]cellRun, len(cells))
	errs := make([]error, len(cells))
	halves := [][2]int{{0, len(cells)}}
	if len(cells) > simHalf {
		halves = [][2]int{{0, simHalf}, {simHalf, len(cells)}}
	}
	for _, h := range halves {
		next := make(chan int)
		var wg sync.WaitGroup
		cpu0, start := cpuTime(), time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runs[i], errs[i] = runCell(&cells[i], cellSeed(p.seed, i), max(2, p.scaled(cells[i].clients)))
				}
			}()
		}
		for i := h[0]; i < h[1]; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		pc.work.wall += time.Since(start)
		pc.work.cpu += cpuTime() - cpu0
		if refHops > 0 {
			before := readProc()
			pc.refWall += simReference{rings: workers}.run(refHops)
			spent := readProc().sub(before)
			pc.refOps += int64(refHops * workers)
			pc.refMallocs += spent.mallocs
			pc.refBytes += spent.bytes
		}
	}
	return runs, pc, errors.Join(errs...)
}

// passSegment turns one pass into a segment. An operation is one
// simulated page visit. The simulator runs a cell's clients concurrently
// in virtual time, so wall cost cannot be split finer than a cell from
// outside: each visit's latency sample is its cell's wall time divided by
// the cell's visits. p50 is then the per-visit cost of the cell holding
// the median visit; a tail of eight distinct values would be the costliest
// cell under another name, so none is reported.
func passSegment(runs []cellRun, pc passClocks, proc procSnap) segment {
	seg := segment{
		work: pc.work, refWall: pc.refWall, refOps: pc.refOps,
		refMallocs: pc.refMallocs, refBytes: pc.refBytes, proc: proc,
	}
	var lat []int64
	for _, c := range runs {
		seg.ops += int64(c.visits)
		seg.failed += int64(c.failed)
		seg.border += c.border
		per := int64(c.wall()) / int64(max(1, c.visits))
		for v := 0; v < c.visits; v++ {
			lat = append(lat, per)
		}
	}
	seg.p50, _, _ = latencyQuantiles(lat)
	seg.p99Err = errors.New("sim_sweep: per-visit latency is per-cell cost, which has no tail")
	return seg
}

// checkRepeat is sim_sweep's determinism gate: every pass must simulate
// exactly the visits and border bytes of the first.
func checkRepeat(r *result, cells []simCell, first, runs []cellRun, pass int) {
	for i, c := range runs {
		if c.failed != 0 {
			r.violate("pass %d cell %s: %d failed visits", pass, cells[i].name, c.failed)
		}
		if c.visits != first[i].visits || c.border != first[i].border {
			r.violate("pass %d cell %s: %d visits / %d border bytes, pass 0 had %d / %d",
				pass, cells[i].name, c.visits, c.border, first[i].visits, first[i].border)
		}
	}
}

// simRef is the simulator's reference: one hop of the ring in simref.go.
var simRef = reference{nominalNs: 1600, sensitivity: 1}

// runSim runs sim_sweep untraced: one pass over the catalogue per
// segment, cells in parallel on p.clients workers.
func runSim(cells []simCell, p plan) (*result, error) {
	r := &result{workload: "sim_sweep", layers: map[string]float64{}}
	setupStart := time.Now()
	var first []cellRun
	var warm passClocks
	for i := 0; i < p.warmup; i++ {
		runs, pc, err := runPass(cells, p, p.clients, simRefHops)
		if err != nil {
			return nil, fmt.Errorf("sim_sweep: warm-up: %w", err)
		}
		if first == nil {
			first = runs
		}
		checkRepeat(r, cells, first, runs, i)
		warm.refWall += pc.refWall
		warm.refOps += pc.refOps
	}
	setup := time.Since(setupStart)
	var segs []segment
	for i := 0; i < p.segments; i++ {
		proc0 := readProc()
		runs, pc, err := runPass(cells, p, p.clients, simRefHops)
		proc1 := readProc()
		if err != nil {
			return nil, fmt.Errorf("sim_sweep: %w", err)
		}
		if first == nil {
			first = runs
		}
		checkRepeat(r, cells, first, runs, p.warmup+i)
		segs = append(segs, passSegment(runs, pc, proc1.sub(proc0)))
	}
	// Building a world moves nothing across its border: set-up has no
	// border traffic to amortise.
	r.summarise(simRef, setup, simRef.slowdown(warm.refWall, warm.refOps), 0, segs)
	return r, nil
}

// traceSim runs sim_sweep traced: cells one at a time, so a cell's span
// is its own cost, with spans around the three facade calls.
func traceSim(cells []simCell, p plan, rec *spans.Recorder) (*result, error) {
	r := &result{workload: "sim_sweep", layers: map[string]float64{}}
	if _, _, err := runPass(cells, p, 1, 0); err != nil {
		return nil, fmt.Errorf("sim_sweep: warm-up: %w", err)
	}
	const passes = 3
	perCell := make([][]float64, len(cells))
	var builds, closes []float64
	var first []cellRun
	var visits, packets, retrans, frames int64
	var virtual, wallTotal time.Duration
	for pass := 0; pass < passes; pass++ {
		passStart := time.Now()
		runs, pc, err := runPass(cells, p, 1, 0)
		if err != nil {
			return nil, fmt.Errorf("sim_sweep: %w", err)
		}
		wall := pc.work.wall
		if first == nil {
			first = runs
		}
		checkRepeat(r, cells, first, runs, pass)
		op := rec.NextOp()
		root := rec.Add("pass", passStart, passStart.Add(wall), 0, op)
		for i, c := range runs {
			built, ran := c.start.Add(c.build), c.start.Add(c.build+c.run)
			id := rec.Add("cell."+cells[i].name, c.start, c.start.Add(c.wall()), root, op)
			rec.Add("world.build", c.start, built, id, op)
			rec.Add("world.run", built, ran, id, op)
			rec.Add("world.close", ran, ran.Add(c.closed), id, op)
			perCell[i] = append(perCell[i], ms(c.wall()))
			builds = append(builds, ms(c.build))
			closes = append(closes, ms(c.closed))
			visits += int64(c.visits)
			r.failed += int64(c.failed)
			packets += c.packets
			retrans += c.retrans
			frames += c.muxFrames
			virtual += c.virtual
		}
		wallTotal += wall
	}
	r.attempted = visits
	n := float64(visits)
	r.layers["netsim.packets_per_op"] = float64(packets) / n
	r.layers["netsim.retransmits_per_op"] = float64(retrans) / n
	r.layers["mux.sim_frames_per_op"] = float64(frames) / n
	r.layers["vclock.virt_s_per_wall_s"] = virtual.Seconds() / wallTotal.Seconds()
	r.layers["sim.world_build_ms"] = stats.Median(builds)
	r.layers["sim.world_close_ms"] = stats.Median(closes)
	for i, cell := range cells {
		r.layers["sim.cell."+cell.name+".ms"] = stats.Median(perCell[i])
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// simCellNames lists the catalogue's cell names, for the layer-metric
// table.
func simCellNames() []string {
	names := make([]string, len(simCatalogue))
	for i, c := range simCatalogue {
		names[i] = c.name
	}
	slices.Sort(names)
	return names
}
