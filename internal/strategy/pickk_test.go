package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/workload"
)

// newTestState builds a synthetic state with a few dozen signature
// classes for PickK selection tests.
func newTestState(t *testing.T, seed int64) *core.State {
	t.Helper()
	rel, _, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 150, GoalAtoms: 2, ExtraMerges: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPickKHeapMatchesSelectionSort drives the heap-based partial sort
// against the old selection sort over adversarial score shapes: all
// tied, grouped ties, random, and strictly decreasing.
func TestPickKHeapMatchesSelectionSort(t *testing.T) {
	st := newTestState(t, 3)
	classes := st.InformativeGroupCount()
	if classes < 8 {
		t.Fatalf("want >= 8 classes for a meaningful test, got %d", classes)
	}
	r := rand.New(rand.NewSource(4))
	scoreFns := map[string]func(c int) float64{
		"all-tied":     func(c int) float64 { return 1 },
		"grouped-ties": func(c int) float64 { return float64(c % 3) },
		"decreasing":   func(c int) float64 { return -float64(c) },
		"random":       func(c int) float64 { return float64(r.Intn(5)) },
	}
	for shape, fn := range scoreFns {
		// The random shape must hand both pickers identical scores, so
		// freeze them per class position first.
		frozen := make([]float64, st.ClassCount())
		for c := range frozen {
			frozen[c] = fn(c)
		}
		fast := &ranked{name: "test", score: func(_ *core.State, c int) float64 { return frozen[c] }}
		slow := &naiveRanked{name: "test", score: func(_ *core.State, _ []partition.P, c int) float64 { return frozen[c] }}
		for _, k := range []int{0, 1, 2, 3, classes - 1, classes, classes + 10, 10 * classes} {
			got := fast.PickK(st, k)
			want := slow.PickK(st, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: len %d, want %d", shape, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: position %d = tuple %d, want %d (got %v, want %v)",
						shape, k, i, got[i], want[i], got, want)
				}
			}
			if k > 0 && len(got) != min(k, classes) {
				t.Fatalf("%s k=%d: returned %d tuples, want %d", shape, k, len(got), min(k, classes))
			}
		}
	}
}

// TestPickKTiesPreferEarlierClass pins the tie-breaking contract
// explicitly: equal scores rank by class position, ascending.
func TestPickKTiesPreferEarlierClass(t *testing.T) {
	st := newTestState(t, 9)
	tied := &ranked{
		name:  "tied",
		score: func(st *core.State, c int) float64 { return 42 },
	}
	classes := st.InformativeClasses()
	got := tied.PickK(st, 4)
	if len(got) != 4 {
		t.Fatalf("PickK(4) returned %d tuples", len(got))
	}
	for i, tuple := range got {
		want := int(st.ClassMembers(int(classes[i]))[0])
		if tuple != want {
			t.Errorf("tied rank %d = tuple %d, want first tuple %d of class %d", i, tuple, want, classes[i])
		}
	}
}

// TestPickKAfterLabels exercises the partial sort against a shrinking
// candidate list (stale score-buffer entries must never be selected).
func TestPickKAfterLabels(t *testing.T) {
	st := newTestState(t, 12)
	s := LookaheadMaxMin()
	slow := MustNaive("lookahead-maxmin", 0)
	r := rand.New(rand.NewSource(1))
	for !st.Done() {
		k := 1 + r.Intn(st.InformativeGroupCount()+2)
		got, want := s.PickK(st, k), slow.PickK(st, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: len %d vs %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d rank %d: %d vs %d", k, i, got[i], want[i])
			}
		}
		inf := st.InformativeIndices()
		i := inf[r.Intn(len(inf))]
		l := core.Positive
		if r.Intn(2) == 0 {
			l = core.Negative
		}
		if st.ImpliedLabel(st.Sig(i)) != core.Unlabeled {
			continue // avoid inconsistent random labels; unreachable for informative tuples
		}
		if _, err := st.Apply(i, l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPickKHugeK pins the allocation bound of every ranker: k arrives
// unbounded from clients (GET /topk?k=, POST /step, wire step frames),
// so a huge k must return at most one tuple per informative class
// rather than reserve k slots up front and exhaust memory.
func TestPickKHugeK(t *testing.T) {
	const hugeK = 4_000_000_000
	st, err := core.NewState(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	pickers := map[string]core.KPicker{}
	for _, name := range Names() {
		p, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		pickers[name] = p
	}
	for _, name := range HeuristicNames() {
		pickers["naive "+name] = MustNaive(name, 1)
	}
	for name, p := range pickers {
		got := p.PickK(st, hugeK)
		if len(got) == 0 || len(got) > st.InformativeGroupCount() {
			t.Errorf("%s: %d tuples for %d informative classes", name, len(got), st.InformativeGroupCount())
		}
		seen := map[int]bool{}
		for _, i := range got {
			if st.Label(i) != core.Unlabeled || seen[st.ClassOf(i)] {
				t.Errorf("%s: tuple %d is labeled or repeats a class in %v", name, i, got)
			}
			seen[st.ClassOf(i)] = true
		}
	}
}
