// Package obs is the repo's observability layer: a named-metrics registry
// built on the lock-free Counter/Gauge primitives (counters.go), a
// structured per-hop flow tracer (trace.go) that records span events on
// the virtual clock, and the sample statistics the figures print
// (stats.go).
//
// Design constraints, in order:
//
//  1. Zero allocation on the hot path. Counter/Gauge/Histogram handles are
//     resolved by name ONCE at component construction; after that every
//     Inc/Observe is a plain atomic add. Snapshot() is the only operation
//     that allocates, and it runs off the measurement hot path.
//  2. Nil-safe. Every component accepts a nil *Registry (and a nil *Trace)
//     and keeps working untraced, so the simulator's deterministic figures
//     and the real-socket deployment share the exact same code paths.
//  3. Additive registration. Components that already own their counters
//     (fleet pick counts, domestic request counts, GFW stats) register
//     read-closures instead of migrating storage; Snapshot sums every
//     source registered under the same name, so two core.Remote instances
//     both publishing "core.remote.streams_opened" aggregate naturally.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Registry is a named collection of counters, gauges and histograms.
// The zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use, and every method is a no-op (returning detached metrics
// where a return value is needed) when the receiver is nil.
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	hists        map[string]*Histogram
	counterFuncs map[string][]func() int64
	gaugeFuncs   map[string][]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		gauges:       make(map[string]*Gauge),
		hists:        make(map[string]*Histogram),
		counterFuncs: make(map[string][]func() int64),
		gaugeFuncs:   make(map[string][]func() int64),
	}
}

// Counter returns the registry-owned counter with the given name, creating
// it on first use. Calling Counter twice with the same name returns the
// same handle. On a nil registry it returns a detached counter that is
// never snapshotted, so callers can instrument unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the registry-owned gauge with the given name, creating it
// on first use. Nil-safe like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the registry-owned histogram with the given name,
// creating it (with the default latency bucket bounds) on first use.
// Nil-safe like Counter.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return newHistogram(defaultBounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(defaultBounds)
		r.hists[name] = h
	}
	return h
}

// RegisterCounter publishes a component-owned counter under name. Multiple
// registrations under the same name are summed at snapshot time.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.RegisterFunc(name, c.Value)
}

// RegisterGauge publishes a component-owned gauge under name. Multiple
// registrations under the same name are summed at snapshot time.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = append(r.gaugeFuncs[name], g.Value)
}

// RegisterFunc publishes an arbitrary int64 reader as a counter source
// under name. The function is called (off the hot path) on every Snapshot;
// it must not call back into the registry.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = append(r.counterFuncs[name], fn)
}

// RegisterGaugeFunc publishes an arbitrary int64 reader as a gauge source
// under name — for point-in-time readings (ring membership, active shard
// counts, rebalance timestamps) that a settled-snapshot Sub must carry
// through at face value instead of differencing like counters. Like
// RegisterFunc, fn is called on every Snapshot and must not call back
// into the registry.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = append(r.gaugeFuncs[name], fn)
}

// Snapshot captures the current value of every registered metric. The
// result is a plain value type safe to retain, diff and render after the
// registry keeps moving. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] += c.Value()
	}
	for name, fns := range r.counterFuncs {
		for _, fn := range fns {
			s.Counters[name] += fn()
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] += g.Value()
	}
	for name, fns := range r.gaugeFuncs {
		for _, fn := range fns {
			s.Gauges[name] += fn()
		}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a Registry's
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the captured value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the captured value of the named gauge (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Sub returns the delta snapshot s - prev: counters and histogram counts
// are subtracted (a counter absent from prev is treated as 0); gauges keep
// their current value, since a gauge delta is rarely meaningful.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h.sub(prev.Histograms[name])
	}
	return out
}

// Merge returns the element-wise sum of s and other: counters, gauges and
// histograms present in either snapshot are added together. It is how the
// parallel experiment harness folds many per-world registries into one
// cross-world aggregate; merging in any order yields the same result, so
// a worker pool can combine shards deterministically by folding them in
// job order.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)+len(other.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)+len(other.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)+len(other.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] += v
	}
	for name, v := range other.Counters {
		out.Counters[name] += v
	}
	for name, v := range s.Gauges {
		out.Gauges[name] += v
	}
	for name, v := range other.Gauges {
		out.Gauges[name] += v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h
	}
	for name, h := range other.Histograms {
		out.Histograms[name] = out.Histograms[name].merge(h)
	}
	return out
}

// WriteText renders the snapshot as sorted "name=value" lines, one metric
// per line — the wire format served on the deployment's /metrics endpoint.
// Histograms expand to _count, _sum_seconds and per-bucket _le_* lines.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+4*len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s=%d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s=%d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s_count=%d", name, h.Count))
		lines = append(lines, fmt.Sprintf("%s_sum_seconds=%.6f", name, h.Sum))
		for i, b := range h.Bounds {
			lines = append(lines, fmt.Sprintf("%s_le_%g=%d", name, b, h.Buckets[i]))
		}
		lines = append(lines, fmt.Sprintf("%s_le_inf=%d", name, h.Buckets[len(h.Buckets)-1]))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// defaultBounds are exponential latency buckets from 1 ms to ~64 s,
// covering everything from a LAN hop to a censored-path page load.
var defaultBounds = []float64{
	0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128,
	0.256, 0.512, 1, 2, 4, 8, 16, 32, 64,
}

// Histogram is a fixed-bucket latency histogram. Observe is a few atomic
// adds — no locks, no allocation — so it is safe on packet-rate paths.
type Histogram struct {
	bounds []float64
	// buckets[i] counts observations <= bounds[i]; the final extra bucket
	// counts observations above every bound.
	buckets []Counter
	count   Counter
	// sum is kept in integer microseconds so it stays a single atomic add.
	sumMicros Counter
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  bounds,
		buckets: make([]Counter, len(bounds)+1),
	}
}

// Observe records a value in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.buckets[i].Inc()
	h.count.Inc()
	h.sumMicros.Add(int64(seconds * 1e6))
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Value(),
		Sum:     float64(h.sumMicros.Value()) / 1e6,
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Value()
	}
	return s
}

// HistogramSnapshot is the captured state of a Histogram. Buckets has one
// more entry than Bounds: the overflow bucket.
type HistogramSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64 // seconds
}

// merge returns the bucket-wise sum of h and other. An empty (zero-value)
// side passes the other through unchanged, so folding shards into a zero
// Snapshot works without special-casing the first histogram seen.
func (h HistogramSnapshot) merge(other HistogramSnapshot) HistogramSnapshot {
	if h.Count == 0 && len(h.Buckets) == 0 {
		return other
	}
	if other.Count == 0 && len(other.Buckets) == 0 {
		return h
	}
	out := HistogramSnapshot{
		Bounds:  h.Bounds,
		Buckets: make([]int64, len(h.Buckets)),
		Count:   h.Count + other.Count,
		Sum:     h.Sum + other.Sum,
	}
	copy(out.Buckets, h.Buckets)
	for i, v := range other.Buckets {
		if i < len(out.Buckets) {
			out.Buckets[i] += v
		}
	}
	return out
}

func (h HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds:  h.Bounds,
		Buckets: make([]int64, len(h.Buckets)),
		Count:   h.Count - prev.Count,
		Sum:     h.Sum - prev.Sum,
	}
	for i := range h.Buckets {
		v := h.Buckets[i]
		if i < len(prev.Buckets) {
			v -= prev.Buckets[i]
		}
		out.Buckets[i] = v
	}
	return out
}
