package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// candidatePercentiles are the percentiles a timing may be reported
// at, lowest first.
var candidatePercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest candidate percentile that still
// has at least ten samples beyond it out of n, and how many samples lie
// beyond it. ok is false when not even the median qualifies (n < 20).
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for i := len(candidatePercentiles) - 1; i >= 0; i-- {
		c := candidatePercentiles[i]
		b := n - rankOf(n, c)
		if b >= 10 {
			return c, b, true
		}
	}
	return 0, 0, false
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank (99.9%
	// of 10000) up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samples collects one timing or size series.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile is the nearest-rank percentile p of the series (0 when
// empty). It sorts the series in place.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// supports reports whether percentile p has at least ten samples
// beyond it — the rule that decides whether a tail percentile may be
// reported at all.
func (s samples) supports(p float64) bool {
	top, _, ok := tailPercentile(len(s))
	return ok && p <= top
}

func median(v []float64) float64 { return samples(append([]float64(nil), v...)).quantile(50) }

// runtimeReading is a snapshot of the Go runtime counters the traced
// run reports per turn.
type runtimeReading struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeReading {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeReading{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// liveHeap forces a full collection and returns the bytes of live heap
// objects.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
