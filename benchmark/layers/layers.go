// Package layers holds the isolated drivers: each exercises one module of
// the program over in-memory pipes, at the shapes the workloads use (1 KiB
// message, 32 KiB chunk, 8 KiB object), and reports its cost per call and
// its allocations. They are the only part of the benchmark that reaches
// below the public facade, and they do so through each module's exported
// functions, from outside.
package layers

import (
	"errors"
	"runtime"
	"time"

	"scholarcloud/benchmark/spans"
)

// Shapes shared with the workloads.
const (
	messageBytes = 1 << 10  // tunnel_small's body
	chunkBytes   = 32 << 10 // one mux frame of a tunnel_bulk body
	objectBytes  = 8 << 10  // a gateway object
)

// batch is one timed batch of n calls.
type batch struct {
	ns     float64 // per call
	allocs float64 // per call
}

// rounds is how many batches a driver runs; the fastest is reported,
// because anything else on the box only ever slows a batch down.
const rounds = 5

// driver is one isolated measurement.
type driver struct {
	// span is the traced run's name for the batches: layer.<module>.<call>.
	span string
	n    int
	// run performs n calls. Set-up it needs happens before it is built.
	run func(n int)
	// report stores the best batch under the driver's metric names.
	report func(best batch, out map[string]float64)
}

// measure runs the driver's batches, each of scale times the driver's
// nominal size, and reports the best.
func (d driver) measure(scale float64, rec *spans.Recorder, out map[string]float64) {
	d.n = max(1, int(float64(d.n)*scale))
	d.run(max(1, d.n/10)) // warm caches, grow buffers
	var best batch
	for i := 0; i < rounds; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		d.run(d.n)
		end := time.Now()
		runtime.ReadMemStats(&after)
		rec.Add(d.span, start, end, 0, 0)
		b := batch{
			ns:     float64(end.Sub(start).Nanoseconds()) / float64(d.n),
			allocs: float64(after.Mallocs-before.Mallocs) / float64(d.n),
		}
		if i == 0 || b.ns < best.ns {
			best.ns = b.ns
		}
		if i == 0 || b.allocs < best.allocs {
			best.allocs = b.allocs
		}
	}
	d.report(best, out)
}

// group builds the drivers of one module and returns them with a
// function releasing whatever they hold.
type group func() (drivers []driver, release func(), err error)

var groups = []group{
	blindingDrivers, tlssimDrivers, muxDrivers, httpsimDrivers, cacheDrivers,
	fleetDrivers, smallDrivers, vclockDrivers, netsimDrivers, gfwDrivers,
}

// Run executes every isolated driver and returns the layer metrics. scale
// multiplies the batch sizes: 1 for a benchmark run, a small fraction for
// a smoke test. rec may be nil.
func Run(scale float64, rec *spans.Recorder) (out map[string]float64, err error) {
	defer func() {
		// A driver call that fails panics with errDriver (see must).
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok || !errors.Is(e, errDriver) {
				panic(p)
			}
			out, err = nil, e
		}
	}()
	out = make(map[string]float64)
	for _, g := range groups {
		drivers, release, err := g()
		if err != nil {
			return nil, err
		}
		for _, d := range drivers {
			d.measure(scale, rec, out)
		}
		release()
	}
	return out, nil
}

// Metric names one number Run reports and its unit.
type Metric struct{ Name, Unit string }

// Metrics lists everything Run reports, in report order.
var Metrics = []Metric{
	{"blinding.ns_per_kb", "ns/KiB"}, {"blinding.allocs_per_write", "count"},
	{"tlssim.ns_per_kb", "ns/KiB"}, {"tlssim.allocs_per_record", "count"}, {"tlssim.handshake_us", "us"},
	{"mux.frame_ns", "ns"}, {"mux.allocs_per_frame", "count"}, {"mux.open_us", "us"},
	{"httpsim.parse_request_ns", "ns"}, {"httpsim.parse_response_ns", "ns"},
	{"httpsim.encode_response_ns", "ns"}, {"httpsim.allocs_per_message", "count"},
	{"cache.hit_ns", "ns"}, {"cache.allocs_per_hit", "count"}, {"cache.fill_ns", "ns"}, {"lru.add_evict_ns", "ns"},
	{"fleet.open_us", "us"},
	{"pki.issue_ms", "ms"}, {"shard.owner_ns", "ns"}, {"pac.evaluate_ns", "ns"}, {"obs.counter_ns", "ns"},
	{"vclock.event_ns", "ns"}, {"vclock.sleep_switch_ns", "ns"},
	{"netsim.packet_ns", "ns"}, {"netsim.allocs_per_packet", "count"},
	{"gfw.classify_ns", "ns"},
}

func nothing() {}
