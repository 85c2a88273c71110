package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"scholarcloud"
	"scholarcloud/benchmark/loadgen"
	"scholarcloud/benchmark/spans"
	"scholarcloud/benchmark/stats"
	"scholarcloud/benchmark/tap"
)

// socketSpec is one real-socket workload: loadgen -> StartDomestic ->
// border tap -> StartRemote -> origin, all on 127.0.0.1. Traffic crosses
// the host loopback only; no link rates or wire latency are claimed.
type socketSpec struct {
	name string
	why  string
	// bodyBytes is the response size; requests carry no body.
	bodyBytes int
	// segOps is operations per client per segment at the nominal run
	// length, sized so a segment's workload takes 1.1-1.3 s on the idle
	// 2-core reference box (tunnel_bulk is at the p99 floor of 1,000
	// operations per segment already).
	segOps int
	// cacheMB > 0 sends absolute-URI GETs through the domestic proxy's
	// shared cache; 0 opens CONNECT tunnels.
	cacheMB int
	// hotKeys > 0 draws every key from a hot set of that size, fetched
	// once during set-up; 0 makes every key new.
	hotKeys int
	// prefill is how many never-requested-again objects set-up pushes
	// through the cache so that it is full when measuring starts.
	prefill int
	// refOps is reference operations per client per slice (see
	// runSegment): bare forwarding of the same bodies through a second tap,
	// sized to take about a quarter as long as the slice's workload.
	refOps int
	ref    reference
	// origins is the number of origin listeners. Each cache miss costs one
	// remote->origin TCP connection, which then sits in TIME_WAIT; several
	// destination ports keep a run well inside the ephemeral port range.
	origins int
}

var socketWorkloads = []socketSpec{
	{
		name:      "tunnel_small",
		why:       "smallest message through 2 CONNECT tunnels: per-message cost of relay, mux frame, blinding and tap dominates",
		bodyBytes: 1 << 10, segOps: 17000, refOps: 560, origins: 1,
		ref: reference{nominalNs: 13000, sensitivity: 1},
	},
	{
		name:      "tunnel_bulk",
		why:       "256 KiB bodies through the same tunnels: per-byte cost (blinding pass, copies, frame chunking) dominates",
		bodyBytes: 256 << 10, segOps: 525, refOps: 75, origins: 1,
		ref: reference{nominalNs: 100000, sensitivity: 0.55},
	},
	{
		name:      "gateway_hot",
		why:       "absolute-URI GETs over a cached 512 x 8 KiB hot set: cache reads, zero border traffic, zero origin hits",
		bodyBytes: 8 << 10, segOps: 42000, refOps: 560, cacheMB: 16, hotKeys: 512, origins: 1,
		ref: reference{nominalNs: 15000, sensitivity: 0.9},
	},
	{
		name:      "gateway_miss",
		why:       "every GET a never-seen 8 KiB key on a full cache: admit+evict plus stream open, handshake and origin dial per op",
		bodyBytes: 8 << 10, segOps: 1400, refOps: 560, cacheMB: 8, prefill: 1024, origins: 4,
		ref: reference{nominalNs: 15000, sensitivity: 1},
	},
}

const secret = "benchmark-secret"

// topology is one running instance of the system under test with the
// benchmark's origin, border tap and clients around it.
type topology struct {
	spec     *socketSpec
	corpus   *loadgen.Corpus
	origin   *loadgen.Origin
	remote   *scholarcloud.RemoteProxy
	border   *tap.Tap
	domestic *scholarcloud.DomesticProxy
	clients  []*loadgen.Client
	keys     []*loadgen.Keys
	hot      []uint64

	// The reference path: the same origin reached through a bare forwarder
	// instead of the two proxies.
	refBorder  *tap.Tap
	refClients []*loadgen.Client
	refKeys    []*loadgen.Keys
	refDone    int64 // reference operations so far; they hit the origin too

	build, prime time.Duration
}

// buildTopology constructs everything up to connected clients.
func buildTopology(spec *socketSpec, seed uint64, clients int) (t *topology, err error) {
	start := time.Now()
	t = &topology{spec: spec, corpus: loadgen.NewCorpus(seed, spec.bodyBytes)}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.origin, err = loadgen.StartOrigin(t.corpus, spec.origins); err != nil {
		return t, err
	}
	t.remote, err = scholarcloud.StartRemote(scholarcloud.RemoteConfig{
		Listen: "127.0.0.1:0", AdminListen: "127.0.0.1:0", Secret: []byte(secret),
	})
	if err != nil {
		return t, err
	}
	if t.border, err = tap.Listen(t.remote.Addr().String()); err != nil {
		return t, err
	}
	t.domestic, err = scholarcloud.StartDomestic(scholarcloud.DomesticConfig{
		ProxyListen: "127.0.0.1:0", WebListen: "127.0.0.1:0", AdminListen: "127.0.0.1:0",
		RemoteAddr: t.border.Addr(), Secret: []byte(secret),
		Whitelist: []string{"127.0.0.1"},
		CacheMB:   spec.cacheMB,
		// The hot set must stay fresh for the whole run; freshness
		// lifetime is not what this benchmark varies.
		CacheTTL: time.Hour,
	})
	if err != nil {
		return t, err
	}
	for i := 0; i < clients; i++ {
		c, err := loadgen.Dial(t.domestic.ProxyAddr().String(), t.corpus)
		if err != nil {
			return t, err
		}
		t.clients = append(t.clients, c)
		t.keys = append(t.keys, loadgen.NewKeys(seed, i))
	}
	if t.refBorder, err = tap.Listen(t.origin.Addrs()[0]); err != nil {
		return t, err
	}
	for i := 0; i < clients; i++ {
		c, err := loadgen.Dial(t.refBorder.Addr(), t.corpus)
		if err != nil {
			return t, err
		}
		c.Direct(t.origin.Addrs()[0])
		t.refClients = append(t.refClients, c)
		t.refKeys = append(t.refKeys, loadgen.NewKeys(seed, 1<<10+i))
	}
	t.build = time.Since(start)
	return t, nil
}

// primeTopology opens the tunnels or fills the cache.
func (t *topology) primeTopology(seed uint64) error {
	start := time.Now()
	deadline := start.Add(150 * time.Second)
	for _, c := range t.refClients {
		c.SetDeadline(deadline)
	}
	for _, c := range t.clients {
		// One deadline for the whole run: a wedged proxy fails the run
		// instead of hanging it, and the hot loop sets no timers.
		c.SetDeadline(deadline)
		if t.spec.cacheMB == 0 {
			if err := c.Tunnel(t.origin.Addrs()[0]); err != nil {
				return err
			}
		} else {
			c.Gateway(t.origin.Addrs())
		}
	}
	fill := loadgen.NewKeys(seed, 1<<20)
	for i := 0; i < t.spec.prefill; i++ {
		if err := t.clients[i%len(t.clients)].Do(fill.Next()); err != nil {
			return fmt.Errorf("cache prefill: %w", explain(err))
		}
	}
	for i := 0; i < t.spec.hotKeys; i++ {
		key := fill.Next()
		t.hot = append(t.hot, key)
		if err := t.clients[i%len(t.clients)].Do(key); err != nil {
			return fmt.Errorf("hot-set fill: %w", explain(err))
		}
	}
	t.prime = time.Since(start)
	return nil
}

// nextKey draws client i's next key.
func (t *topology) nextKey(i int) uint64 {
	k := t.keys[i].Next()
	if len(t.hot) > 0 {
		return t.hot[k%uint64(len(t.hot))]
	}
	return k
}

func (t *topology) close() {
	for _, c := range append(t.clients, t.refClients...) {
		c.Close()
	}
	if t.refBorder != nil {
		t.refBorder.Close()
	}
	if t.domestic != nil {
		t.domestic.Close()
	}
	if t.border != nil {
		t.border.Close()
	}
	if t.remote != nil {
		t.remote.Close()
	}
	if t.origin != nil {
		t.origin.Close()
	}
}

// explain turns the error a port-exhausted host produces into one that
// says so: a run short of ephemeral ports must fail loudly, not read as a
// slow one.
func explain(err error) error {
	// The errno arrives as such when the benchmark's own dial fails, and as
	// text in a 502 body when the remote proxy's dial to the origin does.
	if errors.Is(err, syscall.EADDRNOTAVAIL) || strings.Contains(err.Error(), syscall.EADDRNOTAVAIL.Error()) {
		return fmt.Errorf("%w (ephemeral ports exhausted by TIME_WAIT sockets: wait a minute or widen net.ipv4.ip_local_port_range)", err)
	}
	return err
}

// slicesPerSegment is how many times a segment alternates between the
// workload and the reference.
const slicesPerSegment = 20

// inParallel runs fn once per client, concurrently, and returns how long
// the slowest took and what the process spent meanwhile.
func inParallel(clients []*loadgen.Client, fn func(i int, c *loadgen.Client) error) (clocks, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	cpu0 := cpuTime()
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadgen.Client) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	return clocks{time.Since(start), cpuTime() - cpu0}, errors.Join(errs...)
}

// runSegment has every client perform ops operations, each recording its
// latencies into its slice of lat when lat is non-nil. The operations are
// done in slices, and between slices the reference clients do refOps
// operations each. It returns the time spent on the workload, the wall
// time spent on the reference and the number of reference operations
// done. A failed operation ends the segment: the connection's framing is
// lost with it.
func (t *topology) runSegment(ops, refOps int, lat [][]int64) (work clocks, ref time.Duration, refDone int64, err error) {
	per := (ops + slicesPerSegment - 1) / slicesPerSegment
	for done := 0; done < ops; done += per {
		n := min(per, ops-done)
		c, err := inParallel(t.clients, func(i int, cl *loadgen.Client) error {
			for k := 0; k < n; k++ {
				key := t.nextKey(i)
				t0 := time.Now()
				if err := cl.Do(key); err != nil {
					return explain(err)
				}
				if lat != nil {
					lat[i][done+k] = int64(time.Since(t0))
				}
			}
			return nil
		})
		if err != nil {
			return work, ref, refDone, err
		}
		work.wall += c.wall
		work.cpu += c.cpu
		if refOps == 0 {
			continue
		}
		c, err = inParallel(t.refClients, func(i int, cl *loadgen.Client) error {
			for k := 0; k < refOps; k++ {
				if err := cl.Do(t.refKeys[i].Next()); err != nil {
					return explain(err)
				}
			}
			return nil
		})
		if err != nil {
			return work, ref, refDone, fmt.Errorf("reference: %w", err)
		}
		ref += c.wall
		refDone += int64(refOps * len(t.refClients))
	}
	t.refDone += refDone
	return work, ref, refDone, nil
}

// adminCounters reads both proxies' admin /metrics listeners into one
// map.
func (t *topology) adminCounters() (map[string]float64, error) {
	out := make(map[string]float64)
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for _, addr := range []net.Addr{t.domestic.AdminAddr(), t.remote.AdminAddr()} {
		resp, err := client.Get("http://" + addr.String() + "/metrics")
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(body), "\n") {
			name, val, ok := strings.Cut(line, "=")
			if !ok {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// window is every count the benchmark reads around a stretch of
// operations; two of them subtract into per-op layer metrics.
type window struct {
	admin      map[string]float64
	up, down   tap.Counts
	originHits int64 // the workload's: reference operations subtracted
	proc       procSnap
}

func (t *topology) snapshot() (window, error) {
	admin, err := t.adminCounters()
	if err != nil {
		return window{}, err
	}
	return window{
		admin: admin, up: t.border.Counts(tap.Up), down: t.border.Counts(tap.Down),
		originHits: t.origin.Hits() - t.refDone, proc: readProc(),
	}, nil
}

// countLayers turns two snapshots ops operations apart into the
// count-delta layer metrics.
func (t *topology) countLayers(before, after window, ops int64, out map[string]float64) {
	n := float64(ops)
	d := func(name string) float64 { return after.admin[name] - before.admin[name] }
	upB := float64(after.up.BytesIn - before.up.BytesIn)
	downB := float64(after.down.BytesIn - before.down.BytesIn)
	proc := after.proc.sub(before.proc)
	out["mux.frames_per_op"] = (d("mux.domestic.frames_out") + d("mux.remote.frames_out")) / n
	out["core.streams_per_op"] = d("core.domestic.streams") / n
	if lookups := d("cache.hits") + d("cache.misses"); lookups > 0 {
		out["cache.hit_ratio"] = d("cache.hits") / lookups
	}
	out["cache.evictions_per_op"] = d("cache.evictions") / n
	out["cache.border_fetches_per_op"] = d("cache.border_fetches") / n
	out["fleet.picks_per_op"] = d("fleet.picks") / n
	out["border.up_kb_per_op"] = upB / 1024 / n
	out["border.down_kb_per_op"] = downB / 1024 / n
	out["border.overhead_ratio"] = (upB + downB) / (n * float64(t.spec.bodyBytes))
	out["border.writes_per_op"] = float64(after.up.Reads-before.up.Reads+after.down.Reads-before.down.Reads) / n
	out["runtime.gc_cycles_per_kop"] = float64(proc.gcCycles) / n * 1000
	out["runtime.gc_pause_us_per_op"] = float64(proc.gcPause.Microseconds()) / n
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["runtime.heap_inuse_mb"] = float64(ms.HeapInuse) / (1 << 20)
	out["runtime.goroutines"] = float64(runtime.NumGoroutine())
	out["setup.build_ms"] = float64(t.build.Microseconds()) / 1000
	out["setup.prime_ms"] = float64(t.prime.Microseconds()) / 1000
}

// gate applies the workload's correctness gates to a measured window.
func (t *topology) gate(r *result, before, after window, ops int64) {
	hits := after.originHits - before.originHits
	d := func(name string) int64 { return int64(after.admin[name] - before.admin[name]) }
	for _, dir := range []int{tap.Up, tap.Down} {
		// A carrier keep-alive may be mid-copy at the instant of reading.
		c := t.border.Counts(dir)
		for try := 0; c.BytesIn != c.BytesOut && try < 100; try++ {
			time.Sleep(time.Millisecond)
			c = t.border.Counts(dir)
		}
		if c.BytesIn != c.BytesOut {
			r.violate("border tap forwarded %d of %d bytes", c.BytesOut, c.BytesIn)
		}
	}
	switch {
	case t.spec.hotKeys > 0:
		if hits != 0 {
			r.violate("%d origin hits while measuring a cached hot set, want 0", hits)
		}
		if got := d("cache.hits"); got != ops {
			r.violate("cache.hits rose by %d over %d operations", got, ops)
		}
		border := after.up.BytesIn - before.up.BytesIn + after.down.BytesIn - before.down.BytesIn
		if kb := float64(border) / 1024 / float64(ops); kb >= 0.01 {
			r.violate("%.4f KiB/op crossed the border while serving from cache, want < 0.01", kb)
		}
	case t.spec.cacheMB > 0:
		if got := d("cache.misses"); got != ops {
			r.violate("cache.misses rose by %d over %d operations", got, ops)
		}
		fallthrough
	default:
		if hits != ops {
			r.violate("%d origin hits for %d operations", hits, ops)
		}
	}
}

// runSocket runs one socket workload untraced and reports its end-to-end
// metrics plus the count-delta layer metrics, which cost nothing to read.
func runSocket(spec *socketSpec, p plan) (*result, error) {
	r := &result{workload: spec.name, layers: map[string]float64{}}
	setupStart := time.Now()
	t, err := buildTopology(spec, p.seed, p.clients)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	defer t.close()
	if err := t.primeTopology(p.seed); err != nil {
		return nil, fmt.Errorf("%s: prime: %w", spec.name, err)
	}
	setupBorder := t.border.Bytes()
	ops, refOps := p.scaled(spec.segOps), p.scaled(spec.refOps)
	var warmRef time.Duration
	var warmRefOps int64
	for i := 0; i < p.warmup; i++ {
		_, ref, done, err := t.runSegment(ops, refOps, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
		}
		warmRef += ref
		warmRefOps += done
	}
	setupSlowdown := spec.ref.slowdown(warmRef, warmRefOps)
	lat := make([][]int64, len(t.clients))
	for i := range lat {
		lat[i] = make([]int64, ops)
	}
	merged := make([]int64, 0, ops*len(t.clients))
	segs := make([]segment, 0, p.segments)
	before, err := t.snapshot()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	setup := time.Since(setupStart)

	var firstErr error
	for i := 0; i < p.segments; i++ {
		border0, proc0 := t.border.Bytes(), readProc()
		work, ref, refDone, err := t.runSegment(ops, refOps, lat)
		proc1, border1 := readProc(), t.border.Bytes()
		seg := segment{
			ops: int64(ops * len(t.clients)), work: work, refWall: ref,
			refOps: refDone, proc: proc1.sub(proc0), border: border1 - border0,
		}
		if err != nil {
			firstErr = err
			seg.failed = 1
			segs = append(segs, seg)
			break
		}
		merged = merged[:0]
		for _, l := range lat {
			merged = append(merged, l...)
		}
		seg.p50, seg.p99, seg.p99Err = latencyQuantiles(merged)
		segs = append(segs, seg)
	}
	after, err := t.snapshot()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	r.summarise(spec.ref, setup, setupSlowdown, setupBorder, segs)
	if firstErr != nil {
		r.violate("operation failed: %v", firstErr)
		return r, nil
	}
	t.gate(r, before, after, r.attempted)
	t.countLayers(before, after, r.attempted, r.layers)
	return r, nil
}

// tracedOps is the traced run's segment size as a share of the untraced
// one: enough operations for stable medians, few enough that the span
// file stays small.
const tracedShare = 10

// A traced run alternates pairs untraced and traced segments. Its
// untraced segments hold at least tracedTailOps operations between them at
// the nominal run length: enough for a p99 with ten samples beyond it.
const (
	pairs         = 3
	tracedTailOps = 100 * (stats.MinBeyond + 1)
)

// traceSocket runs one socket workload with a single client, so one
// operation is in flight, alternating untraced and traced segments. It
// records the boundary spans and reports every layer metric the socket
// topology can give from outside.
func traceSocket(spec *socketSpec, p plan, rec *spans.Recorder) (*result, error) {
	r := &result{workload: spec.name, layers: map[string]float64{}}
	t, err := buildTopology(spec, p.seed, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	defer t.close()
	if err := t.primeTopology(p.seed); err != nil {
		return nil, fmt.Errorf("%s: prime: %w", spec.name, err)
	}
	ops := max(1, p.scaled(spec.segOps)/tracedShare)
	// The untraced segments also give the run's tail latency, so together
	// they hold the samples a p99 needs at the nominal run length.
	plainOps := max(ops, p.scaled(tracedTailOps/pairs+1))
	lat := [][]int64{make([]int64, plainOps)}
	var pooled []int64
	if _, _, _, err := t.runSegment(ops, 0, nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
	}
	before, err := t.snapshot()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	var plain, traced []float64 // segment wall time per op, us
	var domesticSelf, remoteSelf, originSelf []float64
	var total int64
	for i := 0; i < pairs; i++ {
		work, _, _, err := t.runSegment(plainOps, 0, lat)
		if err != nil {
			r.failed++
			r.violate("operation failed: %v", err)
			break
		}
		plain = append(plain, float64(work.wall.Microseconds())/float64(plainOps))
		pooled = append(pooled, lat[0]...)
		total += int64(plainOps)

		t.origin.SetStamping(true)
		segStart := time.Now()
		for n := 0; n < ops; n++ {
			o, err := t.tracedOp(rec)
			if err != nil {
				r.failed++
				r.violate("traced operation failed: %v", err)
				break
			}
			domesticSelf = append(domesticSelf, o.domestic)
			remoteSelf = append(remoteSelf, o.remote)
			originSelf = append(originSelf, o.origin)
		}
		t.origin.SetStamping(false)
		traced = append(traced, float64(time.Since(segStart).Microseconds())/float64(ops))
		total += int64(ops)
		if len(r.violations) > 0 {
			break
		}
	}
	r.attempted = total
	after, err := t.snapshot()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	if len(r.violations) == 0 {
		t.gate(r, before, after, total)
	}
	t.countLayers(before, after, total, r.layers)
	r.layers["deploy.domestic_self_us"] = stats.Median(domesticSelf)
	r.layers["deploy.remote_self_us"] = stats.Median(remoteSelf)
	r.layers["bench.origin_self_us"] = stats.Median(originSelf)
	if base := stats.Median(plain); base > 0 {
		r.layers["bench.trace_overhead_pct"] = (stats.Median(traced)/base - 1) * 100
	}
	if _, p99, err := latencyQuantiles(pooled); err == nil {
		r.layers["loadgen.p99_ms"] = p99
	}
	return r, nil
}

// opSplit is one traced operation divided at the border, in us.
type opSplit struct{ domestic, remote, origin float64 }

// tracedOp performs one operation with the tap and the origin stamping,
// and splits it at the border:
//
//	op ⊃ domestic.up    request written -> first byte up at the tap
//	     border.rtt     -> first byte down at the tap after the origin
//	                    began serving (so a cache miss's stream open and
//	                    handshake round trips fall inside it)
//	       ⊃ origin.serve
//	     domestic.down  -> operation verified
//
// An operation that never reaches the border (a cache hit) is all
// domestic.up.
func (t *topology) tracedOp(rec *spans.Recorder) (opSplit, error) {
	key := t.nextKey(0)
	t.border.Arm()
	t0 := time.Now()
	err := t.clients[0].Do(key)
	t1 := time.Now()
	up, down := t.border.Disarm()
	if err != nil {
		return opSplit{}, explain(err)
	}
	serveStart, serveEnd := t.origin.LastServe()
	served := serveStart.After(t0)

	tUp, tDown := t1, t1
	if len(up) > 0 {
		tUp = up[0]
		floor := tUp
		if served {
			floor = serveStart
		}
		for _, d := range down {
			if !d.Before(floor) {
				tDown = d
				break
			}
		}
	}
	op := rec.NextOp()
	root := rec.Add("op", t0, t1, 0, op)
	rec.Add("domestic.up", t0, tUp, root, op)
	var split opSplit
	if tUp.Before(t1) {
		rtt := rec.Add("border.rtt", tUp, tDown, root, op)
		if served && !serveStart.Before(tUp) && serveStart.Before(tDown) {
			// A large response is still being written when its first bytes
			// are already back across the border.
			if serveEnd.After(tDown) {
				serveEnd = tDown
			}
			rec.Add("origin.serve", serveStart, serveEnd, rtt, op)
			split.origin = us(serveEnd.Sub(serveStart))
		}
		rec.Add("domestic.down", tDown, t1, root, op)
	}
	split.domestic = us(tUp.Sub(t0) + t1.Sub(tDown))
	split.remote = us(tDown.Sub(tUp)) - split.origin
	return split, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
