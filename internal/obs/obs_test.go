package obs

import (
	"strings"
	"testing"
	"time"

	"scholarcloud/internal/netx"
)

type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time                             { return c.now }
func (c *fakeClock) Sleep(d time.Duration)                      { c.now = c.now.Add(d) }
func (c *fakeClock) AfterFunc(time.Duration, func()) netx.Timer { return nil }
func (c *fakeClock) advance(d time.Duration)                    { c.now = c.now.Add(d) }

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("layer.hits")
	if r.Counter("layer.hits") != c {
		t.Fatalf("Counter is not idempotent per name")
	}
	c.Add(3)
	r.Gauge("layer.inflight").Set(7)

	var external Counter
	external.Add(5)
	r.RegisterCounter("layer.hits", &external) // summed with the owned counter
	r.RegisterFunc("layer.derived", func() int64 { return 11 })

	s := r.Snapshot()
	if got := s.Counter("layer.hits"); got != 8 {
		t.Fatalf("layer.hits = %d, want 8 (owned 3 + registered 5)", got)
	}
	if got := s.Counter("layer.derived"); got != 11 {
		t.Fatalf("layer.derived = %d, want 11", got)
	}
	if got := s.Gauge("layer.inflight"); got != 7 {
		t.Fatalf("layer.inflight = %d, want 7", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("lat")
	c.Add(2)
	h.Observe(0.5)
	before := r.Snapshot()
	c.Add(5)
	h.Observe(1.5)
	h.Observe(2.5)
	delta := r.Snapshot().Sub(before)
	if got := delta.Counter("x"); got != 5 {
		t.Fatalf("delta x = %d, want 5", got)
	}
	hs := delta.Histograms["lat"]
	if hs.Count != 2 {
		t.Fatalf("delta histogram count = %d, want 2", hs.Count)
	}
	if hs.Sum < 3.9 || hs.Sum > 4.1 {
		t.Fatalf("delta histogram sum = %v, want ~4.0", hs.Sum)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.1, 1})
	h.Observe(0.05) // bucket 0
	h.Observe(0.5)  // bucket 1
	h.Observe(5)    // overflow bucket
	s := h.snapshot()
	want := []int64{1, 1, 1}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	r.RegisterFunc("d", func() int64 { return 1 })
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got != "a.count=1\nb.count=2\n" {
		t.Fatalf("WriteText = %q, want sorted key=value lines", got)
	}
}

func TestTraceRecordsAndRenders(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	tr := NewTrace(clk)
	tr.Add("http", "visit-start", "http://scholar.google.com/")
	clk.advance(40 * time.Millisecond)
	tr.Addf("gfw", "classify", "class=%s verdict=%s", "encrypted", "pass")
	clk.advance(10 * time.Millisecond)
	tr.Add("core", "stream-open", "S scholar.google.com:443")

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].At != 40*time.Millisecond {
		t.Fatalf("span 1 at %v, want 40ms", spans[1].At)
	}
	if got := tr.Count("gfw", "classify"); got != 1 {
		t.Fatalf("Count(gfw, classify) = %d, want 1", got)
	}
	if got := tr.Count("", ""); got != 3 {
		t.Fatalf("Count wildcard = %d, want 3", got)
	}
	out := tr.Render("test load")
	for _, want := range []string{"3 spans", "classify", "class=encrypted verdict=pass", "spans by layer: core=1 gfw=1 http=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add("x", "y", "z")
	tr.Addf("x", "y", "%d", 1)
	if tr.Spans() != nil || tr.Count("", "") != 0 {
		t.Fatal("nil trace should record nothing")
	}
}

func BenchmarkCounterHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.hits")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.lat")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

func BenchmarkNilTraceAdd(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Addf("gfw", "classify", "class=%s", "encrypted")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("visits").Add(3)
	a.Gauge("depth").Set(2)
	a.Histogram("plt").Observe(0.5)
	a.Histogram("plt").Observe(4)
	a.Counter("only_a").Inc()

	b := NewRegistry()
	b.Counter("visits").Add(4)
	b.Gauge("depth").Set(5)
	b.Histogram("plt").Observe(0.5)
	b.Counter("only_b").Inc()
	b.Histogram("only_b_hist").Observe(1)

	m := a.Snapshot().Merge(b.Snapshot())
	if got := m.Counter("visits"); got != 7 {
		t.Errorf("merged visits = %d, want 7", got)
	}
	if m.Counter("only_a") != 1 || m.Counter("only_b") != 1 {
		t.Errorf("one-sided counters = %d/%d, want 1/1", m.Counter("only_a"), m.Counter("only_b"))
	}
	if got := m.Gauge("depth"); got != 7 {
		t.Errorf("merged depth gauge = %d, want 7", got)
	}
	h := m.Histograms["plt"]
	if h.Count != 3 || h.Sum != 5 {
		t.Errorf("merged plt histogram count=%d sum=%v, want 3/5", h.Count, h.Sum)
	}
	var buckets int64
	for _, v := range h.Buckets {
		buckets += v
	}
	if buckets != 3 {
		t.Errorf("merged plt bucket total = %d, want 3", buckets)
	}
	if m.Histograms["only_b_hist"].Count != 1 {
		t.Errorf("one-sided histogram lost: %+v", m.Histograms["only_b_hist"])
	}

	// Folding shards in any order yields the same aggregate.
	m2 := b.Snapshot().Merge(a.Snapshot())
	if m2.Counter("visits") != m.Counter("visits") || m2.Histograms["plt"].Count != m.Histograms["plt"].Count {
		t.Error("Merge is not commutative")
	}
	// Folding into a zero snapshot works (the harness starts from one).
	z := Snapshot{}.Merge(a.Snapshot())
	if z.Counter("visits") != 3 || z.Histograms["plt"].Count != 2 {
		t.Errorf("zero-base merge = %+v", z)
	}
}
