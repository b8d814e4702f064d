package strategy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// These tests pin the zero-allocation guarantee of the steady-state
// pick path: once a strategy instance has warmed its buffers (score
// slab, informative list, top-k heap, the state's projection table),
// rescoring a changed state and selecting proposals must not allocate
// at all — at 6 attributes (one pair-word per signature) and at 12
// (two words). They run in the CI bench-smoke step so the guarantee
// cannot rot silently.
//
// Alternating Pick between two states forces a full rescore on every
// call (the ranked cache is keyed on the state identity), which is the
// worst case: a cache hit trivially allocates nothing. The fan-out
// threshold is forced to 1 so the parallel dispatch path itself is
// measured — under testing.AllocsPerRun GOMAXPROCS is 1, so the pool
// contributes no helpers and the caller scores everything, exercising
// dispatch bookkeeping plus the sequential kernel. Parallel-execution
// correctness is covered by the -race differential tests.

// allocStates builds two warmed states over the same synthetic
// workload, a few labels into the dialogue so the hypothesis is
// non-trivial (real negatives in the antichain, settled classes).
// Twelve-attribute dialogues converge within four labels, so they warm
// for two.
func allocStates(t testing.TB, attrs int, seed int64) (*core.State, *core.State) {
	t.Helper()
	build := func() *core.State {
		rel, goal, err := workload.Synthetic(workload.SynthConfig{
			Attrs: attrs, Tuples: 600, Seed: seed, ExtraMerges: 1.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		// Advance a few steps with a throwaway strategy so the measured
		// instance sees a mid-dialogue state.
		ans := oracle.Goal(goal)
		warm := LookaheadMaxMin()
		warmSteps := 4
		if attrs > 6 {
			warmSteps = 2
		}
		for i := 0; i < warmSteps; i++ {
			idx, ok := warm.Pick(st)
			if !ok {
				break
			}
			l, err := ans.Label(st, idx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Apply(idx, l); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	return build(), build()
}

// parallelSafe lists the strategies whose steady-state Pick/PickK must
// be allocation-free, plus lookahead-2: it is not parallel-safe (its
// cache is shared) but its two-step kernel runs on the same pooled
// bitset machinery, so it is held to the same bar.
func zeroAllocStrategies() map[string]core.KPicker {
	return map[string]core.KPicker{
		"random":               Random(7),
		"local-most-specific":  LocalMostSpecific(),
		"local-least-specific": LocalLeastSpecific(),
		"lookahead-maxmin":     LookaheadMaxMin(),
		"lookahead-expected":   LookaheadExpected(),
		"lookahead-entropy":    LookaheadEntropy(),
		"lookahead-2":          Lookahead2(),
	}
}

func TestZeroAllocPick(t *testing.T) {
	for _, attrs := range []int{6, 12} {
		stA, stB := allocStates(t, attrs, 11)
		for name, s := range zeroAllocStrategies() {
			withThreshold(t, 1, func() {
				// Warm: first calls size every reusable buffer.
				s.Pick(stA)
				s.Pick(stB)
				allocs := testing.AllocsPerRun(50, func() {
					if _, ok := s.Pick(stA); !ok {
						t.Fatal("no informative tuple")
					}
					if _, ok := s.Pick(stB); !ok {
						t.Fatal("no informative tuple")
					}
				})
				if allocs != 0 {
					t.Errorf("%s, %d attrs: steady-state Pick allocates %.1f allocs/op, want 0", name, attrs, allocs/2)
				}
			})
		}
	}
}

func TestZeroAllocPickK(t *testing.T) {
	for _, attrs := range []int{6, 12} {
		stA, stB := allocStates(t, attrs, 23)
		for name, s := range zeroAllocStrategies() {
			withThreshold(t, 1, func() {
				s.PickK(stA, 8)
				s.PickK(stB, 8)
				allocs := testing.AllocsPerRun(50, func() {
					if got := s.PickK(stA, 8); len(got) == 0 {
						t.Fatal("no informative tuple")
					}
					if got := s.PickK(stB, 8); len(got) == 0 {
						t.Fatal("no informative tuple")
					}
				})
				if allocs != 0 {
					t.Errorf("%s, %d attrs: steady-state PickK allocates %.1f allocs/op, want 0", name, attrs, allocs/2)
				}
			})
		}
	}
}
