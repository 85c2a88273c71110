package obs

// stats.go is the small statistics toolkit the measurement study uses:
// summaries with mean and error bars (the paper's figures show max/min
// whiskers), percentiles, and the figures' number formatters.

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes a sample set.
type Summary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	P50  float64
	P95  float64
	Std  float64
}

// Summarize computes a Summary over xs. An empty input yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	total := 0.0
	for _, x := range xs {
		total += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = total / float64(len(xs))
	var sq float64
	for _, x := range xs {
		sq += (x - s.Mean) * (x - s.Mean)
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentileSorted(sorted, 0.50)
	s.P95 = percentileSorted(sorted, 0.95)
	return s
}

// SummarizeDurations is Summarize over time.Durations, in seconds.
func SummarizeDurations(ds []time.Duration) Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return Summarize(xs)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := p * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentile computes the p-quantile (0..1) of xs.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// FormatSeconds renders a seconds value compactly ("1.32s", "330ms").
func FormatSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.0fms", s*1000)
	default:
		return fmt.Sprintf("%.2fms", s*1000)
	}
}

// FormatPercent renders a fraction as a percentage ("0.22%").
func FormatPercent(f float64) string {
	return fmt.Sprintf("%.2f%%", f*100)
}

// FormatKB renders bytes as kilobytes ("19.0 KB").
func FormatKB(b float64) string {
	return fmt.Sprintf("%.1f KB", b/1024)
}
