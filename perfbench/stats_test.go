package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 19},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 99, p: 50, beyond: 49, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 999, p: 90, beyond: 99, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 9999, p: 99, beyond: 99, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	} {
		p, beyond, ok := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, ok=%v; want p%g, %d beyond, ok=%v",
				tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
}

func TestSupports(t *testing.T) {
	s := make(samples, 1000)
	if !s.supports(99) || s.supports(99.9) {
		t.Errorf("1000 samples must support p99 and not p99.9")
	}
	if s[:999].supports(99) {
		t.Errorf("999 samples must not support p99")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := s.quantile(p); got != want {
			t.Errorf("p%g of 1..100 = %g, want %g", p, got, want)
		}
	}
	if got := (samples{}).quantile(50); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}
