package strategy_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func travelState(t *testing.T) *core.State {
	t.Helper()
	st, err := core.NewState(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNamesAndByName(t *testing.T) {
	for _, name := range strategy.Names() {
		s, err := strategy.ByName(name, 7)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := strategy.ByName("nope", 0); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestHeuristicsConvergeEverywhere(t *testing.T) {
	goals := []partition.P{
		workload.TravelQ1(),
		workload.TravelQ2(),
		partition.Bottom(5),
		partition.MustFromBlocks(5, [][]int{{0, 3}}),
	}
	for _, goal := range goals {
		for _, s := range strategy.Heuristics(11) {
			st := travelState(t)
			eng := core.NewEngine(st, s, oracle.Goal(goal))
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name(), goal, err)
			}
			if !res.Converged {
				t.Errorf("%s did not converge on goal %v", s.Name(), goal)
			}
			if !core.InstanceEquivalent(st.Relation(), res.Query, goal) {
				t.Errorf("%s inferred %v for goal %v", s.Name(), res.Query, goal)
			}
		}
	}
}

func TestDeterministicStrategiesAreDeterministic(t *testing.T) {
	for _, name := range []string{
		"local-most-specific", "local-least-specific",
		"lookahead-maxmin", "lookahead-expected", "lookahead-entropy",
		"lookahead-2",
	} {
		run := func() []int {
			s, err := strategy.ByName(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			st := travelState(t)
			eng := core.NewEngine(st, s, oracle.Goal(workload.TravelQ2()))
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			order := make([]int, len(res.Steps))
			for i, step := range res.Steps {
				order[i] = step.TupleIndex
			}
			return order
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("%s: runs differ in length", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: run orders differ at %d: %v vs %v", name, i, a, b)
			}
		}
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	pick := func(seed int64) int {
		st := travelState(t)
		i, ok := strategy.Random(seed).Pick(st)
		if !ok {
			t.Fatal("no pick on fresh state")
		}
		return i
	}
	// Not all seeds may differ, but across several seeds at least two
	// distinct picks must appear on a 12-tuple instance.
	seen := map[int]bool{}
	for seed := int64(0); seed < 10; seed++ {
		seen[pick(seed)] = true
	}
	if len(seen) < 2 {
		t.Errorf("random strategy picked identically across seeds: %v", seen)
	}
}

func TestPickOnConvergedState(t *testing.T) {
	rel := relation.MustBuild(relation.MustSchema("a", "b"), []any{1, 1})
	st, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(0, core.Positive); err != nil {
		t.Fatal(err)
	}
	for _, s := range strategy.Heuristics(3) {
		if _, ok := s.Pick(st); ok {
			t.Errorf("%s picked on converged state", s.Name())
		}
		if got := s.PickK(st, 3); got != nil {
			t.Errorf("%s PickK on converged state = %v", s.Name(), got)
		}
	}
}

func TestLookaheadMaxMinIsGreedyOptimal(t *testing.T) {
	// On the fresh travel instance, lookahead-maxmin must pick a tuple
	// achieving the true maximum over min(prunedIfPos, prunedIfNeg).
	st := travelState(t)
	best := -1
	for _, c := range st.InformativeClasses() {
		p, n := st.SimulatePrunesGroup(int(c))
		if m := min(p, n); m > best {
			best = m
		}
	}
	i, ok := strategy.LookaheadMaxMin().Pick(st)
	if !ok {
		t.Fatal("no pick")
	}
	p, n := st.SimulatePrunes(st.Sig(i))
	if min(p, n) != best {
		t.Errorf("picked tuple %d with min prune %d, best is %d", i, min(p, n), best)
	}
}

func TestPickKProperties(t *testing.T) {
	st := travelState(t)
	for _, s := range strategy.Heuristics(5) {
		got := s.PickK(st, 4)
		if len(got) == 0 || len(got) > 4 {
			t.Fatalf("%s PickK(4) = %v", s.Name(), got)
		}
		seenGroup := map[int]bool{}
		for _, i := range got {
			if !st.Informative(i) {
				t.Errorf("%s proposed uninformative tuple %d", s.Name(), i)
			}
			g := st.ClassOf(i)
			if seenGroup[g] {
				t.Errorf("%s proposed two tuples of one signature class", s.Name())
			}
			seenGroup[g] = true
		}
		// Requesting more than available caps at the number of classes.
		all := s.PickK(st, 100)
		if len(all) != st.InformativeGroupCount() {
			t.Errorf("%s PickK(100) returned %d, want %d classes",
				s.Name(), len(all), st.InformativeGroupCount())
		}
	}
}

// worstCase computes, by exhaustive adversarial answers, the maximum
// number of questions the picker needs to converge on rel. The
// adversary may give any label that stays consistent.
func worstCase(t *testing.T, rel *relation.Relation, mk func() core.Picker) int {
	t.Helper()
	var rec func(labels map[int]core.Label) int
	rec = func(labels map[int]core.Label) int {
		st, err := core.NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range labels {
			if st.Label(i).IsExplicit() {
				continue
			}
			if st.Label(i) != core.Unlabeled {
				continue // became implied; skip
			}
			if _, err := st.Apply(i, l); err != nil {
				t.Fatalf("replay: %v", err)
			}
		}
		if st.Done() {
			return 0
		}
		i, ok := mk().Pick(st)
		if !ok {
			return 0
		}
		worst := 0
		for _, l := range []core.Label{core.Positive, core.Negative} {
			if l == core.Positive && st.ImpliedLabel(st.Sig(i)) == core.ImpliedNegative {
				continue
			}
			if l == core.Negative && st.ImpliedLabel(st.Sig(i)) == core.ImpliedPositive {
				continue
			}
			next := map[int]core.Label{}
			for k, v := range labels {
				next[k] = v
			}
			next[i] = l
			if c := 1 + rec(next); c > worst {
				worst = c
			}
		}
		return worst
	}
	return rec(map[int]core.Label{})
}

func TestOptimalBeatsOrTiesHeuristicsWorstCase(t *testing.T) {
	rel := workload.Travel()
	optWC := worstCase(t, rel, func() core.Picker { return strategy.Optimal(strategy.DefaultOptimalBudget) })
	for _, name := range []string{"local-most-specific", "local-least-specific", "lookahead-maxmin", "lookahead-expected", "lookahead-entropy"} {
		wc := worstCase(t, rel, func() core.Picker {
			s, err := strategy.ByName(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		if optWC > wc {
			t.Errorf("optimal worst case %d exceeds %s worst case %d", optWC, name, wc)
		}
	}
	if optWC < 1 {
		t.Errorf("optimal worst case = %d, want >= 1", optWC)
	}
}

func TestOptimalConvergesAndCounts(t *testing.T) {
	opt := strategy.Optimal(strategy.DefaultOptimalBudget)
	st := travelState(t)
	eng := core.NewEngine(st, opt, oracle.Goal(workload.TravelQ2()))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("optimal did not converge")
	}
	if !core.InstanceEquivalent(st.Relation(), res.Query, workload.TravelQ2()) {
		t.Errorf("optimal inferred %v", res.Query)
	}
	if opt.Explored() == 0 {
		t.Error("optimal explored zero states")
	}
	if opt.Fallbacks() != 0 {
		t.Errorf("optimal fell back %d times with a large budget", opt.Fallbacks())
	}
}

func TestOptimalBudgetFallback(t *testing.T) {
	opt := strategy.Optimal(1) // starve it
	st := travelState(t)
	eng := core.NewEngine(st, opt, oracle.Goal(workload.TravelQ2()))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("starved optimal did not converge via fallback")
	}
	if opt.Fallbacks() == 0 {
		t.Error("starved optimal reported no fallbacks")
	}
}

func TestOptimalPickK(t *testing.T) {
	opt := strategy.Optimal(strategy.DefaultOptimalBudget)
	st := travelState(t)
	got := opt.PickK(st, 3)
	if len(got) != 3 {
		t.Fatalf("PickK(3) = %v", got)
	}
	for _, i := range got {
		if !st.Informative(i) {
			t.Errorf("optimal PickK proposed uninformative %d", i)
		}
	}
}
