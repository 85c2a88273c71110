// Package stats holds the benchmark's estimators: the median and a
// percentile that refuses thin tails.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is a couple of outliers, not a tail.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// ascending-sorted samples, or an error when fewer than MinBeyond samples
// lie beyond it.
func Percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	rank := int(math.Ceil(float64(n)*p-1e-9)) - 1 // zero-based
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < MinBeyond {
		return 0, fmt.Errorf("stats: p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, MinBeyond)
	}
	return sorted[rank], nil
}

// Median returns the median of vals (the mean of the middle two for an
// even count). vals is not modified.
func Median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
