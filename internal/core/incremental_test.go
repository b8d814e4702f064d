package core

import (
	"fmt"
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
	for k := range st.ClassCount() {
		c := 0
		for _, i := range st.ClassMembers(k) {
			if st.Label(int(i)) == Unlabeled {
				c++
			}
		}
		if c == 0 {
			continue
		}
		sig := st.ClassSig(k)
		if next.MP.LessEq(sig) {
			count += c
			continue
		}
		m := next.MP.Meet(sig)
		for _, neg := range next.Negs {
			if m.LessEq(neg) {
				count += c
				break
			}
		}
	}
	return count
}

// TestSimulatePruneGroupMatchesNaive cross-checks the bit-sliced
// prune-count kernel against the definitional recount for every
// informative class and a random signature, at every step of random
// sessions with appends interleaved between labels. The attribute
// counts span an empty pair set (1), one pair-word (2–11; 11 is the
// largest that fits) and two (12 and 13). Appends grow the class set
// after a table was built, so the rebuild-per-Version policy is
// covered, and CheckInvariants recomputes the built table after every
// step. The test also asserts it reached every shape of table at each
// pair-set width: an antichain of 0, 1 and several maximal negatives,
// and a projection carrying more than one unlabeled tuple. At 8 and 12
// attributes it then drives states of 530 distinct signatures and one
// class of 260 tuples, checking every 16th class, so the table holds
// more than one, two and eight entry words (a second stack block of
// the kernel) and a ninth weight plane, with and without a negative.
func TestSimulatePruneGroupMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var (
		negsSeen  [2][3]bool // per width (one word, more): 0, 1, ≥2 maximal negatives
		heavySeen [2]bool    // per width: a projection of weight > 1
		sizeSeen  [2][4]bool // per width: D > 64, D > 128, D > 512, a weight ≥ 256
	)
	for _, n := range []int{8, 12} {
		wide := 0
		if n > 11 {
			wide = 1
		}
		st, goal := largeTableState(t, r, n, 530, 260)
		for step := 0; step < 3 && !st.Done(); step++ {
			// Every 16th class: the naive recount is quadratic in classes.
			var sample []int32
			for k, c := range st.InformativeClasses() {
				if k%16 == 0 {
					sample = append(sample, c)
				}
			}
			checkPrunesOf(t, st, fmt.Sprintf("large n=%d step %d", n, step), sample, partition.Uniform(r, n).Cached())
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("large n=%d step %d: %v", n, step, err)
			}
			d := st.lat.proj.d
			weight, planes := tableReach(st)
			for k, reached := range []bool{d > 64, d > 128, d > 512, weight >= 256 && planes > 8} {
				sizeSeen[wide][k] = sizeSeen[wide][k] || reached
			}
			// A negative first (M_P stays Top, so D stays large), then
			// whatever the goal says.
			inf := st.InformativeIndices()
			i, l := inf[len(inf)-1], Negative
			if step > 0 || goal.LessEq(st.Sig(i)) {
				i = inf[r.Intn(len(inf))]
				if goal.LessEq(st.Sig(i)) {
					l = Positive
				}
			}
			if _, err := st.Apply(i, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	for wide, seen := range sizeSeen {
		if seen != [4]bool{true, true, true, true} {
			t.Errorf("width %d: table sizes reached: D > 64, > 128, > 512, weight ≥ 256: %v", wide, seen)
		}
	}
	for _, n := range []int{1, 2, 4, 5, 6, 11, 12, 13} {
		wide := 0
		if n > 11 {
			wide = 1
		}
		for trial := 0; trial < 4; trial++ {
			serial := 0
			rel := relation.New(relation.MustSchema(attrNames(n)...))
			rel.MustAppend(randomTuples(r, n, 30, &serial)...)
			st, err := NewState(rel)
			if err != nil {
				t.Fatal(err)
			}
			goal := partition.RandomGoal(r, n, 2)
			for step := 0; ; step++ {
				if step > 2*st.Relation().Len() { // labels plus appends
					t.Fatalf("n=%d trial %d: session did not converge", n, trial)
				}
				// Checked once more at convergence: an empty table.
				checkPrunes(t, st, fmt.Sprintf("n=%d step %d", n, step), partition.Uniform(r, n).Cached())
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("n=%d trial %d step %d: %v", n, trial, step, err)
				}
				if st.Done() {
					break
				}
				negsSeen[wide][min(len(st.lat.negs), 2)] = true
				weight, _ := tableReach(st)
				heavySeen[wide] = heavySeen[wide] || weight > 1
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
	for wide := range negsSeen {
		if negsSeen[wide] != [3]bool{true, true, true} || !heavySeen[wide] {
			t.Errorf("width %d: kernel branches reached: 0/1/≥2 negatives %v, weight > 1 %v", wide, negsSeen[wide], heavySeen[wide])
		}
	}
}

// tableReach returns the weight of the heaviest projection in st's
// built table (the first entry: the table orders them by weight length)
// and the most weight planes a row of it holds.
func tableReach(st *State) (weight, planes int) {
	t := &st.lat.proj
	if t.d == 0 {
		return 0, 0
	}
	_, weight = t.entry(len(st.lat.mp), 0)
	for _, row := range t.rows {
		planes = max(planes, int(row.planes))
	}
	return weight, planes
}

// largeTableState returns a state over n attributes with distinct
// random signature classes of one tuple each, plus a class of heavy
// tuples equal on the first half of the attributes and on the rest,
// and a random goal.
func largeTableState(t *testing.T, r *rand.Rand, n, distinct, heavy int) (*State, partition.P) {
	t.Helper()
	rel := relation.New(relation.MustSchema(attrNames(n)...))
	for k := 0; k < heavy; k++ {
		tu := make(relation.Tuple, n)
		for i := range tu {
			tu[i] = values.Int(int64(k)<<8 + int64(2*i/n))
		}
		rel.MustAppend(tu)
	}
	seen := map[string]bool{SigOf(rel.Tuple(0)).Key(): true}
	for len(seen) <= distinct {
		sig := partition.Uniform(r, n)
		if seen[sig.Key()] {
			continue
		}
		seen[sig.Key()] = true
		tu := make(relation.Tuple, n)
		for i := range tu {
			tu[i] = values.Int(int64(heavy+len(seen))<<8 + int64(sig.BlockOf(i)))
		}
		rel.MustAppend(tu)
	}
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	return st, partition.RandomGoal(r, n, 2)
}

// checkPrunes holds both counts of every informative class, and of the
// signature foreign (not necessarily a class of st), to naivePrune,
// through the pair kernels and their single-label selectors.
func checkPrunes(t testing.TB, st *State, at string, foreign partition.P) {
	t.Helper()
	checkPrunesOf(t, st, at, st.InformativeClasses(), foreign)
}

// checkPrunesOf is checkPrunes for the given informative classes.
func checkPrunesOf(t testing.TB, st *State, at string, classes []int32, foreign partition.P) {
	t.Helper()
	check := func(sig partition.P, pos, neg int) {
		t.Helper()
		if want := naivePrune(st, sig, Positive); pos != want {
			t.Fatalf("%s: %v answered +: %d pruned, naive %d", at, sig, pos, want)
		}
		if want := naivePrune(st, sig, Negative); neg != want {
			t.Fatalf("%s: %v answered -: %d pruned, naive %d", at, sig, neg, want)
		}
	}
	for _, c := range classes {
		sig := st.ClassSig(int(c))
		pos, neg := st.SimulatePrunesGroup(int(c))
		check(sig, pos, neg)
		if p, n := st.SimulatePrunes(sig); p != pos || n != neg {
			t.Fatalf("%s: SimulatePrunes(%v) = %d, %d; SimulatePrunesGroup = %d, %d", at, sig, p, n, pos, neg)
		}
		if p, n := st.SimulatePruneGroup(int(c), Positive), st.SimulatePruneGroup(int(c), Negative); p != pos || n != neg {
			t.Fatalf("%s: SimulatePruneGroup(%v) = %d, %d; pair = %d, %d", at, sig, p, n, pos, neg)
		}
	}
	pos, neg := st.SimulatePrunes(foreign)
	check(foreign, pos, neg)
	if p, n := st.SimulatePrune(foreign, Positive), st.SimulatePrune(foreign, Negative); p != pos || n != neg {
		t.Fatalf("%s: SimulatePrune(%v) = %d, %d; pair = %d, %d", at, foreign, p, n, pos, neg)
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
	gbuf := make([]int32, 0, 8)
	ibuf := make([]int, 0, 8)
	goal := partition.RandomGoal(r, 5, 2)
	for {
		gbuf = st.AppendInformativeClasses(gbuf[:0])
		ibuf = st.AppendInformativeIndices(ibuf[:0])
		groups := st.InformativeClasses()
		idxs := st.InformativeIndices()
		if len(gbuf) != len(groups) || len(gbuf) != st.InformativeGroupCount() {
			t.Fatalf("group counts disagree: append %d, alloc %d, count %d",
				len(gbuf), len(groups), st.InformativeGroupCount())
		}
		for k := range groups {
			if gbuf[k] != groups[k] {
				t.Fatalf("group %d differs", k)
			}
			if st.GroupUnlabeled(int(groups[k])) <= 0 {
				t.Fatalf("informative class %d has no unlabeled tuples", groups[k])
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
