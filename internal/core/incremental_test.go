package core

import (
	"math/rand"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
)

// randomInstance builds a relation whose tuples have random signatures
// over n attributes (values encode the blocks, so Eq(t) is exactly the
// drawn partition).
func randomInstance(r *rand.Rand, n, tuples int) *relation.Relation {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	rel := relation.New(relation.MustSchema(names...))
	for t := 0; t < tuples; t++ {
		sig := partition.Uniform(r, n)
		tu := make(relation.Tuple, n)
		base := int64(t) << 8
		for i := 0; i < n; i++ {
			tu[i] = values.Int(base + int64(sig.BlockOf(i)))
		}
		rel.MustAppend(tu)
	}
	return rel
}

// driveRandomSession labels random informative tuples by a random goal
// until convergence, checking the incremental caches against the
// definitional recount after every step.
func driveRandomSession(t *testing.T, r *rand.Rand, st *State, goal partition.P) {
	t.Helper()
	for steps := 0; !st.Done(); steps++ {
		if steps > st.Relation().Len() {
			t.Fatal("session did not converge")
		}
		inf := st.InformativeIndices()
		i := inf[r.Intn(len(inf))]
		l := Negative
		if goal.LessEq(st.Sig(i)) {
			l = Positive
		}
		if _, err := st.Apply(i, l); err != nil {
			t.Fatalf("Apply(%d, %v): %v", i, l, err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("after Apply(%d, %v): %v", i, l, err)
		}
	}
}

func TestIncrementalStateInvariantsUnderRandomSessions(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(5)
		rel := randomInstance(r, n, 20+r.Intn(60))
		st, err := NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("fresh state: %v", err)
		}
		goal := partition.RandomGoal(r, n, 1+r.Intn(2))
		driveRandomSession(t, r, st, goal)
	}
}

// naivePrune recounts SimulatePrune from the definition: refine the
// hypothesis, then reclassify every class by Meet/LessEq and count its
// unlabeled tuples by scanning labels.
func naivePrune(st *State, sig partition.P, l Label) int {
	next := st.Hypo().Apply(sig, l)
	count := 0
	for _, g := range st.Groups() {
		c := 0
		for _, i := range g.Indices {
			if st.Label(i) == Unlabeled {
				c++
			}
		}
		if c == 0 {
			continue
		}
		if next.MP.LessEq(g.Sig) {
			count += c
			continue
		}
		m := next.MP.Meet(g.Sig)
		for _, neg := range next.Negs {
			if m.LessEq(neg) {
				count += c
				break
			}
		}
	}
	return count
}

// TestSimulatePruneGroupMatchesNaive cross-checks the projection-table
// kernels against the definitional recount for every informative class
// and a random signature, at every step of random sessions with
// appends interleaved between labels. The attribute counts span pair
// sets of one word (4–6) and two (12 and 13: a second word is needed
// above 11 attributes). Appends grow the class set after a table was
// built, so the rebuild-per-Version policy is covered, and
// CheckInvariants recomputes the built table after every step.
func TestSimulatePruneGroupMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 5, 6, 12, 13} {
		for trial := 0; trial < 4; trial++ {
			serial := 0
			rel := relation.New(relation.MustSchema(attrNames(n)...))
			rel.MustAppend(randomTuples(r, n, 30, &serial)...)
			st, err := NewState(rel)
			if err != nil {
				t.Fatal(err)
			}
			goal := partition.RandomGoal(r, n, 2)
			for step := 0; !st.Done(); step++ {
				if step > 2*st.Relation().Len() { // labels plus appends
					t.Fatalf("n=%d trial %d: session did not converge", n, trial)
				}
				foreign := partition.Uniform(r, n).Cached()
				for _, l := range []Label{Positive, Negative} {
					for _, g := range st.InformativeGroups() {
						fast := st.SimulatePruneGroup(g.Pos, l)
						if bySig := st.SimulatePrune(g.Sig, l); bySig != fast {
							t.Fatalf("SimulatePrune(%v, %v) = %d, SimulatePruneGroup = %d", g.Sig, l, bySig, fast)
						}
						if want := naivePrune(st, g.Sig, l); fast != want {
							t.Fatalf("n=%d step %d: SimulatePruneGroup(%v, %v) = %d, naive = %d", n, step, g.Sig, l, fast, want)
						}
					}
					if got, want := st.SimulatePrune(foreign, l), naivePrune(st, foreign, l); got != want {
						t.Fatalf("n=%d step %d: SimulatePrune(%v, %v) = %d, naive = %d", n, step, foreign, l, got, want)
					}
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("n=%d trial %d step %d: %v", n, trial, step, err)
				}
				if step%3 == 2 && serial < 60 {
					if _, err := st.Append(randomTuples(r, n, 1+r.Intn(6), &serial)); err != nil {
						t.Fatal(err)
					}
					continue
				}
				inf := st.InformativeIndices()
				i := inf[r.Intn(len(inf))]
				l := Negative
				if goal.LessEq(st.Sig(i)) {
					l = Positive
				}
				if _, err := st.Apply(i, l); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestMPVersionTracksRefinement(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	rel := randomInstance(r, 5, 40)
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	goal := partition.RandomGoal(r, 5, 2)
	for !st.Done() {
		before := st.MP()
		beforeVer := st.MPVersion()
		i := st.InformativeIndices()[0]
		l := Negative
		if goal.LessEq(st.Sig(i)) {
			l = Positive
		}
		if _, err := st.Apply(i, l); err != nil {
			t.Fatal(err)
		}
		changed := !st.MP().Equal(before)
		bumped := st.MPVersion() != beforeVer
		if changed != bumped {
			t.Fatalf("M_P changed=%v but MPVersion bumped=%v", changed, bumped)
		}
		if l == Negative && bumped {
			t.Fatal("negative label bumped MPVersion")
		}
	}
}

func TestAppendVariantsMatchAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	rel := randomInstance(r, 5, 30)
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	gbuf := make([]*SigGroup, 0, 8)
	ibuf := make([]int, 0, 8)
	goal := partition.RandomGoal(r, 5, 2)
	for {
		gbuf = st.AppendInformativeGroups(gbuf[:0])
		ibuf = st.AppendInformativeIndices(ibuf[:0])
		groups := st.InformativeGroups()
		idxs := st.InformativeIndices()
		if len(gbuf) != len(groups) || len(gbuf) != st.InformativeGroupCount() {
			t.Fatalf("group counts disagree: append %d, alloc %d, count %d",
				len(gbuf), len(groups), st.InformativeGroupCount())
		}
		for k := range groups {
			if gbuf[k] != groups[k] {
				t.Fatalf("group %d differs", k)
			}
			if st.GroupUnlabeled(groups[k].Pos) <= 0 {
				t.Fatalf("informative class %d has no unlabeled tuples", groups[k].Pos)
			}
		}
		if len(ibuf) != len(idxs) {
			t.Fatalf("index counts disagree: %d vs %d", len(ibuf), len(idxs))
		}
		for k := range idxs {
			if ibuf[k] != idxs[k] {
				t.Fatalf("index %d differs: %d vs %d", k, ibuf[k], idxs[k])
			}
		}
		if st.Done() {
			break
		}
		i := idxs[0]
		l := Negative
		if goal.LessEq(st.Sig(i)) {
			l = Positive
		}
		if _, err := st.Apply(i, l); err != nil {
			t.Fatal(err)
		}
	}
}
