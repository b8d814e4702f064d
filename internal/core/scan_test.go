package core_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/workload"
)

// scannableHeap returns the collector's count of scannable heap bytes
// after a full collection.
func scannableHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestStateHeapIsPointerFree is the pointer-free guard of the class
// table: with 64 States live over bulk-wire create relations (1,250×6
// synthetic integers, 134 signature classes), the heap the collector
// must scan grows by under 6 KiB per State beyond its relation. The
// member lists, one []int32 header per class, are most of what is left.
// Measured: 4.0 KiB with the flat class table; 20.9 KiB with a
// partition, a *SigGroup and a map entry per class.
func TestStateHeapIsPointerFree(t *testing.T) {
	const states, bound = 64, 6 << 10
	rel, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: 1250, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rels := make([]*relation.Relation, states)
	for i := range rels {
		rels[i] = rel.Clone()
	}
	before := scannableHeap()
	fleet := make([]*core.State, states)
	for i := range fleet {
		if fleet[i], err = core.NewState(rels[i]); err != nil {
			t.Fatal(err)
		}
	}
	perState := (float64(scannableHeap()) - float64(before)) / states
	runtime.KeepAlive(fleet)
	t.Logf("scannable heap grew %.0f bytes per State of %d classes", perState, fleet[0].ClassCount())
	if perState > bound {
		t.Fatalf("scannable heap grew %.0f bytes per State of %d classes, want under %d", perState, fleet[0].ClassCount(), bound)
	}
}
