package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Paper tuple (k) is index k-1; these helpers keep tests readable
// against the text of Section 2.
func paperIdx(k int) int { return k - 1 }

func newTravelState(t *testing.T) *core.State {
	t.Helper()
	st, err := core.NewState(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustApply(t *testing.T, st *core.State, paperTuple int, l core.Label) []int {
	t.Helper()
	newly, err := st.Apply(paperIdx(paperTuple), l)
	if err != nil {
		t.Fatalf("Apply(tuple (%d), %v): %v", paperTuple, l, err)
	}
	return newly
}

func TestTravelSignatures(t *testing.T) {
	st := newTravelState(t)
	// Tuple (3) = (Paris, Lille, AF, Lille, AF): To=City, Airline=Discount.
	want := workload.TravelQ2()
	if got := st.Sig(paperIdx(3)); !got.Equal(want) {
		t.Errorf("Eq(tuple 3) = %v, want %v", got, want)
	}
	// Tuple (8) = (NYC, Paris, AA, Paris, None): To=City only.
	if got := st.Sig(paperIdx(8)); !got.Equal(workload.TravelQ1()) {
		t.Errorf("Eq(tuple 8) = %v, want %v", got, workload.TravelQ1())
	}
	// Tuple (1) = (Paris, Lille, AF, NYC, AA): all distinct.
	if got := st.Sig(paperIdx(1)); !got.IsBottom() {
		t.Errorf("Eq(tuple 1) = %v, want bottom", got)
	}
}

// Paper §2: labeling (3) as + leaves both Q1 and Q2 consistent, and
// makes (4) uninformative.
func TestPaperExampleLabelThree(t *testing.T) {
	st := newTravelState(t)
	newly := mustApply(t, st, 3, core.Positive)

	if got := st.MP(); !got.Equal(workload.TravelQ2()) {
		t.Errorf("M_P after (3)+ = %v, want Q2", got)
	}
	// Both Q1 and Q2 remain consistent.
	consistent := st.ConsistentQueries(0)
	keyset := map[string]bool{}
	for _, q := range consistent {
		keyset[q.Key()] = true
	}
	if !keyset[workload.TravelQ1().Key()] || !keyset[workload.TravelQ2().Key()] {
		t.Errorf("Q1/Q2 not both consistent after (3)+: %v", consistent)
	}
	// Tuple (4) has the same signature as (3): implied positive.
	if got := st.Label(paperIdx(4)); got != core.ImpliedPositive {
		t.Errorf("tuple (4) label = %v, want implied positive", got)
	}
	found := false
	for _, i := range newly {
		if i == paperIdx(4) {
			found = true
		}
	}
	if !found {
		t.Errorf("tuple (4) not in newly implied %v", newly)
	}
	// Tuple (8) can distinguish Q1 from Q2: informative.
	if !st.Informative(paperIdx(8)) {
		t.Error("tuple (8) should be informative after (3)+")
	}
}

// Paper §2: with (3) positive and (7), (8) negative, there is exactly
// one consistent join predicate: Q2.
func TestPaperExampleUniqueQ2(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 3, core.Positive)
	mustApply(t, st, 7, core.Negative)
	mustApply(t, st, 8, core.Negative)

	consistent := st.ConsistentQueries(0)
	if len(consistent) != 1 {
		t.Fatalf("consistent queries = %v, want exactly Q2", consistent)
	}
	if !consistent[0].Equal(workload.TravelQ2()) {
		t.Errorf("consistent query = %v, want Q2", consistent[0])
	}
	if !st.Done() {
		t.Errorf("state not converged; informative left: %v", st.InformativeIndices())
	}
	if got := st.Result(); !got.Equal(workload.TravelQ2()) {
		t.Errorf("Result = %v, want Q2", got)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Paper §2: if (8) is labeled + after (3)+, the inference heads to Q1.
func TestPaperExampleEightPositiveGivesQ1(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 3, core.Positive)
	mustApply(t, st, 8, core.Positive)
	if got := st.MP(); !got.Equal(workload.TravelQ1()) {
		t.Errorf("M_P after (3)+ (8)+ = %v, want Q1", got)
	}
	// One negative on an all-distinct tuple rules out ⊥ and converges.
	mustApply(t, st, 1, core.Negative)
	if !st.Done() {
		t.Errorf("not converged; informative: %v", st.InformativeIndices())
	}
	if got := st.Result(); !got.Equal(workload.TravelQ1()) {
		t.Errorf("Result = %v, want Q1", got)
	}
}

// Paper §2: from scratch, labeling (12) as + prunes exactly (3), (4),
// (7); labeling it as − prunes exactly (1), (5), (9).
func TestPaperExampleTwelvePropagation(t *testing.T) {
	plus := newTravelState(t)
	newly := mustApply(t, plus, 12, core.Positive)
	want := []int{paperIdx(3), paperIdx(4), paperIdx(7)}
	if !reflect.DeepEqual(sorted(newly), want) {
		t.Errorf("(12)+ implied %v, want tuples (3),(4),(7)", newly)
	}
	for _, i := range newly {
		if plus.Label(i) != core.ImpliedPositive {
			t.Errorf("tuple %d labeled %v, want implied positive", i, plus.Label(i))
		}
	}

	minus := newTravelState(t)
	newly = mustApply(t, minus, 12, core.Negative)
	want = []int{paperIdx(1), paperIdx(5), paperIdx(9)}
	if !reflect.DeepEqual(sorted(newly), want) {
		t.Errorf("(12)- implied %v, want tuples (1),(5),(9)", newly)
	}
	for _, i := range newly {
		if minus.Label(i) != core.ImpliedNegative {
			t.Errorf("tuple %d labeled %v, want implied negative", i, minus.Label(i))
		}
	}
}

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestApplyRejectsContradictions(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 3, core.Positive)
	// (4) is implied positive; labeling it negative contradicts.
	if _, err := st.Apply(paperIdx(4), core.Negative); !errors.Is(err, core.ErrInconsistent) {
		t.Errorf("contradicting label error = %v, want ErrInconsistent", err)
	}
	// Consistent explicit label over an implied one is fine.
	if _, err := st.Apply(paperIdx(4), core.Positive); err != nil {
		t.Errorf("explicit consistent label rejected: %v", err)
	}
	if st.Label(paperIdx(4)) != core.Positive {
		t.Errorf("label = %v, want explicit positive", st.Label(paperIdx(4)))
	}
	// Re-labeling an explicit label is rejected.
	if _, err := st.Apply(paperIdx(4), core.Positive); !errors.Is(err, core.ErrAlreadyLabeled) {
		t.Errorf("relabel error = %v, want ErrAlreadyLabeled", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestApplyValidatesArguments(t *testing.T) {
	st := newTravelState(t)
	if _, err := st.Apply(-1, core.Positive); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := st.Apply(999, core.Positive); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := st.Apply(0, core.ImpliedPositive); err == nil {
		t.Error("implied label accepted by Apply")
	}
	if _, err := st.Apply(0, core.Unlabeled); err == nil {
		t.Error("unlabeled accepted by Apply")
	}
}

func TestContradictionLeavesStateUntouched(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 3, core.Positive)
	before := st.Progress()
	mpBefore := st.MP()
	if _, err := st.Apply(paperIdx(4), core.Negative); err == nil {
		t.Fatal("expected contradiction")
	}
	if st.Progress() != before {
		t.Errorf("progress changed after rejected label: %v -> %v", before, st.Progress())
	}
	if !st.MP().Equal(mpBefore) {
		t.Errorf("M_P changed after rejected label")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNegativeAntichainMaintenance(t *testing.T) {
	st := newTravelState(t)
	// (1) has the bottom signature; (12) has {Airline,Discount}.
	mustApply(t, st, 12, core.Negative)
	if len(st.Negatives()) != 1 {
		t.Fatalf("negatives = %v", st.Negatives())
	}
	// (1) became implied negative (Eq(1)=⊥ ≤ Eq(12)), so it cannot be
	// asked; but check the antichain directly on a fresh state with the
	// reverse order: ⊥ first, then the dominating signature.
	st2 := newTravelState(t)
	mustApply(t, st2, 1, core.Negative) // Eq = ⊥
	if len(st2.Negatives()) != 1 {
		t.Fatalf("negatives = %v", st2.Negatives())
	}
	mustApply(t, st2, 12, core.Negative) // Eq = {Airline,Discount} dominates ⊥
	negs := st2.Negatives()
	if len(negs) != 1 || !negs[0].Equal(st2.Sig(paperIdx(12))) {
		t.Errorf("antichain after dominating negative = %v", negs)
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSignatureGroups(t *testing.T) {
	st := newTravelState(t)
	// Tuples (3) and (4) share Eq = Q2; (7) also has {From,City},{Airline,Discount}.
	g3 := st.ClassOf(paperIdx(3))
	g4 := st.ClassOf(paperIdx(4))
	if g3 != g4 {
		t.Error("tuples (3) and (4) should share a signature group")
	}
	if !reflect.DeepEqual(st.ClassMembers(g3), []int32{int32(paperIdx(3)), int32(paperIdx(4))}) {
		t.Errorf("group indices = %v", st.ClassMembers(g3))
	}
	total := 0
	for c := range st.ClassCount() {
		total += len(st.ClassMembers(c))
	}
	if total != st.Relation().Len() {
		t.Errorf("groups cover %d tuples, want %d", total, st.Relation().Len())
	}
}

func TestProgressAccounting(t *testing.T) {
	st := newTravelState(t)
	p := st.Progress()
	if p.Total != 12 || p.Explicit != 0 || p.Informative != 12 {
		t.Errorf("initial progress = %+v", p)
	}
	mustApply(t, st, 12, core.Positive) // implies (3),(4),(7)
	p = st.Progress()
	if p.Explicit != 1 || p.Implied != 3 || p.Informative != 8 {
		t.Errorf("progress after (12)+ = %+v", p)
	}
	if p.String() == "" {
		t.Error("Progress.String empty")
	}
}

// TestProgressStringMatchesFormat holds the append-built summary to the
// fmt verbs it replaced, rounding included.
func TestProgressStringMatchesFormat(t *testing.T) {
	for _, p := range []core.Progress{
		{},
		{Total: 12, Explicit: 1, Implied: 3, Informative: 8},
		{Total: 3, Explicit: 1, Implied: 1, Informative: 1},
		{Total: 8, Explicit: 1, Implied: 7},
		{Total: 2000, Explicit: 1, Implied: 1999},
		{Total: 1 << 40, Explicit: 1<<40 - 1, Implied: 1, Informative: 0},
	} {
		pct := func(k int) float64 {
			if p.Total == 0 {
				return 0
			}
			return 100 * float64(k) / float64(p.Total)
		}
		want := fmt.Sprintf("%d/%d labeled (%.1f%%), %d implied (%.1f%%), %d informative remain",
			p.Explicit, p.Total, pct(p.Explicit), p.Implied, pct(p.Implied), p.Informative)
		if got := p.String(); got != want {
			t.Errorf("%+v: String() = %q, want %q", p, got, want)
		}
		if got := string(p.AppendString([]byte("x"))); got != "x"+want {
			t.Errorf("%+v: AppendString = %q, want %q", p, got, "x"+want)
		}
	}
}

func TestSimulatePruneMatchesApply(t *testing.T) {
	// SimulatePrune must predict exactly the number of unlabeled tuples
	// that stop being informative, for both answers, on every
	// informative tuple of several instances.
	rels := []*relation.Relation{workload.Travel()}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 5; k++ {
		rel, _, err := workload.Synthetic(workload.SynthConfig{
			Attrs: 5, Tuples: 40, Seed: int64(100 + k), ExtraMerges: 1.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	for ri, rel := range rels {
		st, err := core.NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		// Apply a few random labels to reach a non-trivial state.
		goal := partition.Uniform(rng, rel.Schema().Len())
		for steps := 0; steps < 3 && !st.Done(); steps++ {
			inf := st.InformativeIndices()
			i := inf[rng.Intn(len(inf))]
			l := core.Positive
			if !goal.LessEq(st.Sig(i)) {
				l = core.Negative
			}
			if _, err := st.Apply(i, l); err != nil {
				t.Fatalf("rel %d: %v", ri, err)
			}
		}
		for _, i := range st.InformativeIndices() {
			for _, l := range []core.Label{core.Positive, core.Negative} {
				predicted := st.SimulatePrune(st.Sig(i), l)
				// Replay on a clone-by-reconstruction.
				st2 := replay(t, rel, st)
				before := st2.InformativeCount()
				newly, err := st2.Apply(i, l)
				if err != nil {
					t.Fatalf("replay apply: %v", err)
				}
				actual := before - st2.InformativeCount()
				_ = newly
				if predicted != actual {
					t.Errorf("rel %d tuple %d label %v: predicted prune %d, actual %d",
						ri, i, l, predicted, actual)
				}
			}
		}
	}
}

// replay reconstructs an equivalent state by re-applying the explicit
// labels of st to a fresh state over rel.
func replay(t *testing.T, rel *relation.Relation, st *core.State) *core.State {
	t.Helper()
	st2, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rel.Len(); i++ {
		if st.Label(i).IsExplicit() {
			if _, err := st2.Apply(i, st.Label(i)); err != nil {
				t.Fatalf("replaying label %d: %v", i, err)
			}
		}
	}
	return st2
}

func TestCountConsistentMatchesEnumeration(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 3, core.Positive)
	n := st.CountConsistent()
	if n != len(st.ConsistentQueries(0)) {
		t.Errorf("CountConsistent=%d, enumeration=%d", n, len(st.ConsistentQueries(0)))
	}
	// After (3)+: consistent queries are the refinements of Q2 minus
	// none (no negatives): Bell-product = 2*2 = 4 queries
	// (⊥, Q1, {Airline=Discount}, Q2).
	if n != 4 {
		t.Errorf("CountConsistent after (3)+ = %d, want 4", n)
	}
	if got := len(st.ConsistentQueries(2)); got != 2 {
		t.Errorf("limit ignored: got %d", got)
	}
}

func TestSelectsAndInstanceEquivalence(t *testing.T) {
	rel := workload.Travel()
	q1, q2 := workload.TravelQ1(), workload.TravelQ2()
	sel1 := core.SelectTuples(rel, q1)
	sel2 := core.SelectTuples(rel, q2)
	// Q2 ⊆ Q1 as results (containment noted in the paper).
	inQ1 := map[int]bool{}
	for _, i := range sel1 {
		inQ1[i] = true
	}
	for _, i := range sel2 {
		if !inQ1[i] {
			t.Errorf("Q2 selected %d but Q1 did not", i)
		}
	}
	if len(sel2) >= len(sel1) {
		t.Errorf("Q2 (%d tuples) should be strictly contained in Q1 (%d)", len(sel2), len(sel1))
	}
	// Q1 (To=City) selects (3),(4),(8),(10); Q2 additionally requires
	// Airline=Discount and selects only (3),(4).
	if !reflect.DeepEqual(sel1, []int{2, 3, 7, 9}) {
		t.Errorf("Q1 selects %v", sel1)
	}
	if !reflect.DeepEqual(sel2, []int{2, 3}) {
		t.Errorf("Q2 selects %v", sel2)
	}
	if core.InstanceEquivalent(rel, q1, q2) {
		t.Error("Q1 and Q2 wrongly instance-equivalent")
	}
	if !core.InstanceEquivalent(rel, q1, q1) {
		t.Error("Q1 not equivalent to itself")
	}
}

func TestEmptyAndDegenerateInstances(t *testing.T) {
	empty := relation.New(relation.MustSchema("a", "b"))
	st, err := core.NewState(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Error("empty instance should converge immediately")
	}
	if _, err := core.NewState(relation.New(&relation.Schema{})); err == nil {
		t.Error("zero-attribute schema accepted")
	}

	// Single tuple, all values equal: Eq = Top; every query selects it,
	// so a single positive label converges.
	one := relation.MustBuild(relation.MustSchema("a", "b"), []any{1, 1})
	st, err = core.NewState(one)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(0, core.Positive); err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Error("single-tuple instance did not converge")
	}
}

// Property: propagation marks a tuple implied iff brute-force
// enumeration of consistent queries says all of them agree on it.
func TestPropertyImpliedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3) // 3..5 attributes keeps Bell small
		rel, goal, err := workload.Synthetic(workload.SynthConfig{
			Attrs: n, Tuples: 12 + rng.Intn(10), Seed: seed, ExtraMerges: 1.2,
		})
		if err != nil {
			return false
		}
		st, err := core.NewState(rel)
		if err != nil {
			return false
		}
		// Random consistent labeling run of up to 4 steps.
		for steps := 0; steps < 4 && !st.Done(); steps++ {
			inf := st.InformativeIndices()
			i := inf[rng.Intn(len(inf))]
			l := core.Positive
			if !goal.LessEq(st.Sig(i)) {
				l = core.Negative
			}
			if _, err := st.Apply(i, l); err != nil {
				return false
			}
		}
		consistent := st.ConsistentQueries(0)
		if len(consistent) == 0 {
			return false // must never happen with a truthful oracle
		}
		for i := 0; i < rel.Len(); i++ {
			sig := st.Sig(i)
			selCount := 0
			for _, q := range consistent {
				if q.LessEq(sig) {
					selCount++
				}
			}
			allAgree := selCount == 0 || selCount == len(consistent)
			implied := st.Label(i) != core.Unlabeled
			if implied != allAgree {
				return false
			}
			// Direction must match too.
			switch st.Label(i) {
			case core.ImpliedPositive, core.Positive:
				if selCount != len(consistent) {
					return false
				}
			case core.ImpliedNegative, core.Negative:
				if selCount != 0 {
					return false
				}
			}
		}
		return st.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
