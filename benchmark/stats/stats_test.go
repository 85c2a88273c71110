package stats

import "testing"

func TestPercentileRefusesThinTail(t *testing.T) {
	mk := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	if _, err := Percentile(mk(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	got, err := Percentile(mk(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (nearest rank)", got)
	}
	if got, err := Percentile(mk(100), 0.5); err != nil || got != 50 {
		t.Errorf("p50 of 1..100 = %d, %v; want 50", got, err)
	}
	if _, err := Percentile(mk(15), 0.5); err == nil {
		t.Error("p50 of 15 samples has 7 beyond and must be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd: %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}
