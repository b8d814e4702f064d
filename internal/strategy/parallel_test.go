package strategy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// withThreshold runs fn with the parallel fan-out threshold forced to
// v, restoring the default afterwards.
func withThreshold(t testing.TB, v int, fn func()) {
	t.Helper()
	old := parallelThreshold
	parallelThreshold = v
	defer func() { parallelThreshold = old }()
	fn()
}

func TestParallelScoringMatchesSequential(t *testing.T) {
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 800, Seed: 9, ExtraMerges: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() core.KPicker{
		LocalMostSpecific, LocalLeastSpecific,
		LookaheadMaxMin, LookaheadExpected, LookaheadEntropy,
	} {
		runWith := func(threshold int) []int {
			var order []int
			withThreshold(t, threshold, func() {
				st, err := core.NewState(rel)
				if err != nil {
					t.Fatal(err)
				}
				eng := core.NewEngine(st, mk(), oracle.Goal(goal))
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("did not converge")
				}
				for _, s := range res.Steps {
					order = append(order, s.TupleIndex)
				}
			})
			return order
		}
		seq := runWith(1 << 30) // force sequential
		par := runWith(1)       // force parallel
		if len(seq) != len(par) {
			t.Fatalf("%s: sequential %d steps, parallel %d", mk().Name(), len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Errorf("%s: step %d differs: %d vs %d", mk().Name(), i, seq[i], par[i])
			}
		}
	}
}

func TestParallelPickKMatchesSequential(t *testing.T) {
	rel, _, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 500, Seed: 4, ExtraMerges: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	s := LookaheadMaxMin()
	var seq, par []int
	// PickK's result buffer is reused across calls; copy to compare.
	withThreshold(t, 1<<30, func() { seq = append([]int(nil), s.PickK(st, 5)...) })
	withThreshold(t, 1, func() { par = append([]int(nil), s.PickK(st, 5)...) })
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %v vs %v", seq, par)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("position %d: %v vs %v", i, seq, par)
		}
	}
}

func TestNonParallelStrategiesStaySequential(t *testing.T) {
	// Lookahead-2 (shared cache) must never fan out; this is encoded in
	// its construction. Random became parallel-safe when its draws
	// turned into a pure hash of (seed, state version, class) — assert
	// that too, so a regression back to a shared RNG is caught.
	for _, tc := range []struct {
		s        core.KPicker
		parallel bool
	}{
		{Lookahead2(), false},
		{Random(1), true},
	} {
		r, ok := tc.s.(*ranked)
		if !ok {
			t.Fatalf("%s is not ranked-based", tc.s.Name())
		}
		if r.parallel != tc.parallel {
			t.Errorf("%s parallel = %v, want %v", tc.s.Name(), r.parallel, tc.parallel)
		}
	}
}
