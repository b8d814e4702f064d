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
// must scan grows by under 1 KiB per State beyond its relation: the
// State and its slab headers, none per class. Measured: 717 bytes with
// every class's members in one array; 4.0 KiB with a member list per
// class; 20.9 KiB with a partition, a *SigGroup and a map entry per
// class.
func TestStateHeapIsPointerFree(t *testing.T) {
	const states, bound = 64, 1 << 10
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

// TestAppendOneRowStreamBytesScale is the append-growth guard of the
// member array: into a synthetic 6-attribute session of 20,000 tuples,
// 1,000 one-row appends allocate within twice the bytes they allocate
// into one of 2,000. Each session first takes 1,000 one-row appends
// unmeasured: those move every touched class out of NewState's exact
// layout and grow the per-tuple arrays once, a cost proportional to
// the session, paid once. After that, runs that fill in place and move
// only when they double keep an append's cost to its own rows;
// relaying out every member on each append allocated 8.6 times as much
// at the larger size.
func TestAppendOneRowStreamBytesScale(t *testing.T) {
	const appends = 1000
	stream := func(size int) uint64 {
		full, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: size + 2*appends, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rel := relation.New(full.Schema())
		var rows [][]relation.Tuple
		full.Each(func(i int, tu relation.Tuple) {
			if i < size {
				rel.MustAppend(tu)
			} else {
				rows = append(rows, []relation.Tuple{tu.Clone()})
			}
		})
		st, err := core.NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		for k, row := range rows {
			if k == appends {
				runtime.ReadMemStats(&before)
			}
			if _, err := st.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := stream(2000), stream(20000)
	t.Logf("%d one-row appends allocate %d KiB at 2,000 tuples, %d KiB at 20,000", appends, small>>10, large>>10)
	if large > 2*small {
		t.Fatalf("%d one-row appends allocate %d B at 20,000 tuples, more than twice the %d B at 2,000", appends, large, small)
	}
}
