package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// buildMidDialogue returns a state a few labels into a synthetic
// dialogue, so the hypothesis has a refined meet and real negatives.
func buildMidDialogue(t testing.TB, attrs int, seed int64, steps int) *State {
	t.Helper()
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: attrs, Tuples: 400, Seed: seed, ExtraMerges: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if len(st.infClasses) == 0 {
			break
		}
		gi := st.infClasses[0]
		idx := firstUnlabeledIn(st, gi)
		l := Negative
		if goal.LessEq(st.Sig(idx)) {
			l = Positive
		}
		if _, err := st.Apply(idx, l); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func firstUnlabeledIn(st *State, gi int32) int {
	for _, i := range st.cls.members[gi] {
		if st.labels[i] == Unlabeled {
			return int(i)
		}
	}
	return -1
}

// mallocs counts the heap allocations made by one call of f.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestProjectionTableRebuildZeroAlloc pins the steady-state cost of the
// projection table: once its buffers are sized, the rebuild that the
// first simulation after an Apply or an Append performs allocates
// nothing, at one (6 attributes) and two (12) pair-words per set.
// Labels only shrink the informative population and merge projections
// into fewer rows, and arrivals into existing classes add no
// projection, so neither outgrows the buffers.
// (The labels are positive: a negative one may grow the antichain past
// its high-water mark, which is amortized growth, not steady state.)
func TestProjectionTableRebuildZeroAlloc(t *testing.T) {
	for _, attrs := range []int{6, 12} {
		st := buildMidDialogue(t, attrs, 3, 2)
		if st.Done() {
			t.Fatalf("%d attrs: dialogue converged during set-up", attrs)
		}
		st.SimulatePrunesGroup(int(st.infClasses[0])) // sizes the buffers
		if allocs := testing.AllocsPerRun(20, func() {
			st.version++ // what Apply and Append do to the table
			st.SimulatePrunesGroup(int(st.infClasses[0]))
		}); allocs != 0 {
			t.Errorf("%d attrs: forced rebuild allocates %.1f allocs/op, want 0", attrs, allocs)
		}
		rel := st.Relation()
		for step := 0; step < 6 && !st.Done(); step++ {
			if step%2 == 0 {
				idx := firstUnlabeledIn(st, st.infClasses[len(st.infClasses)-1])
				if _, err := st.Apply(idx, Positive); err != nil {
					t.Fatal(err)
				}
			} else if _, err := st.Append([]relation.Tuple{rel.Tuple(step), rel.Tuple(firstUnlabeledIn(st, st.infClasses[0]))}); err != nil {
				t.Fatal(err)
			}
			if st.Done() {
				break
			}
			built := st.lat.proj.built.Load()
			if n := mallocs(func() { st.SimulatePrunesGroup(int(st.infClasses[0])) }); n != 0 {
				t.Errorf("%d attrs step %d: rebuild allocates %d times, want 0", attrs, step, n)
			}
			if st.lat.proj.built.Load() == built {
				t.Fatalf("%d attrs step %d: simulation did not rebuild the table", attrs, step)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("%d attrs step %d: %v", attrs, step, err)
			}
		}
	}
}

// TestProjectionTableConcurrentBuild races parallel scorers to the
// first simulation of a new Version, on two states at once (their
// builds share the slot buffer): every caller must see the counts a
// sequential pass computes.
func TestProjectionTableConcurrentBuild(t *testing.T) {
	states := []*State{buildMidDialogue(t, 6, 5, 2), buildMidDialogue(t, 12, 5, 1)}
	want := make([][]int, len(states))
	for s, st := range states {
		for _, gi := range st.infClasses {
			pos, neg := st.SimulatePrunesGroup(int(gi))
			want[s] = append(want[s], pos, neg)
		}
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for s, st := range states {
			st.version++ // a new Version: the next simulation rebuilds
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k, gi := range st.infClasses {
						if pos, neg := st.SimulatePrunesGroup(int(gi)); pos != want[s][2*k] || neg != want[s][2*k+1] {
							t.Errorf("state %d class %d: %d, %d, want %d, %d", s, gi, pos, neg, want[s][2*k], want[s][2*k+1])
						}
					}
				}()
			}
		}
		wg.Wait()
	}
}
