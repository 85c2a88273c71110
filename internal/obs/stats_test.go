package obs

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %v", s.P50)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.P50 != 7 || s.P95 != 7 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean != 2 {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if p := Percentile(xs, 0); p != 10 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 40 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(xs, 0.5); p != 25 {
		t.Errorf("p50 = %v", p)
	}
}

func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.P50 && s.P50 <= s.Max &&
			s.P50 <= s.P95+1e-9 && s.N == len(xs) && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{FormatSeconds(1.316), "1.32s"},
		{FormatSeconds(0.33), "330ms"},
		{FormatSeconds(0.00022), "0.22ms"},
		{FormatPercent(0.0022), "0.22%"},
		{FormatKB(19456), "19.0 KB"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestCounterAndGaugeConcurrency(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	c.Add(-1)
	g.Set(42)
	if c.Value() != 7999 || g.Value() != 42 {
		t.Errorf("after Add/Set: counter=%d gauge=%d", c.Value(), g.Value())
	}
}
