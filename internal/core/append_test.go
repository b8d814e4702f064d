package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
)

// randomTuples draws count tuples with random signatures over n
// attributes (same encoding as randomInstance: values encode blocks
// with a per-tuple base, so Eq(t) is exactly the drawn partition and
// classes repeat whenever Uniform redraws a partition). serial keeps
// bases unique across batches.
func randomTuples(r *rand.Rand, n, count int, serial *int) []relation.Tuple {
	out := make([]relation.Tuple, count)
	for t := range out {
		sig := partition.Uniform(r, n)
		tu := make(relation.Tuple, n)
		base := int64(*serial) << 8
		*serial++
		for i := 0; i < n; i++ {
			tu[i] = values.Int(base + int64(sig.BlockOf(i)))
		}
		out[t] = tu
	}
	return out
}

// labelRandomInformative applies one goal-answered label to a random
// informative tuple and checks invariants. Returns false at
// convergence.
func labelRandomInformative(t *testing.T, r *rand.Rand, st *State, goal partition.P) bool {
	t.Helper()
	inf := st.InformativeIndices()
	if len(inf) == 0 {
		return false
	}
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
	return true
}

// TestAppendApplyInterleavedInvariants is the randomized property test
// for streaming ingestion: Append and Apply interleave in random
// order, CheckInvariants runs after every step, and the converged
// state is cross-checked against a fresh NewState over the full
// instance with the explicit labels replayed.
func TestAppendApplyInterleavedInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(4)
		goal := partition.Uniform(r, n)
		serial := 0
		rel := relation.New(relation.MustSchema(attrNames(n)...))
		for _, tu := range randomTuples(r, n, 1+r.Intn(6), &serial) {
			rel.MustAppend(tu)
		}
		st, err := NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		base := st.BaseLen()
		appends := 0
		for step := 0; step < 150; step++ {
			if appends < 8 && (r.Float64() < 0.3 || st.Done()) {
				batch := randomTuples(r, n, 1+r.Intn(5), &serial)
				newly, err := st.Append(batch)
				if err != nil {
					t.Fatalf("trial %d step %d: Append: %v", trial, step, err)
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("trial %d step %d: after Append: %v", trial, step, err)
				}
				for _, i := range newly {
					if i < st.Relation().Len()-len(batch) {
						t.Fatalf("trial %d step %d: Append implied pre-existing tuple %d", trial, step, i)
					}
					if st.Label(i) == Unlabeled {
						t.Fatalf("trial %d step %d: tuple %d reported implied but unlabeled", trial, step, i)
					}
				}
				appends++
				continue
			}
			if !labelRandomInformative(t, r, st, goal) && appends >= 8 {
				break
			}
		}
		// Drain to convergence so the cross-check covers a full session.
		for !st.Done() {
			if !labelRandomInformative(t, r, st, goal) {
				break
			}
		}
		if st.BaseLen() != base {
			t.Fatalf("trial %d: BaseLen moved from %d to %d", trial, base, st.BaseLen())
		}
		if got, want := st.Appended(), st.Relation().Len()-base; got != want {
			t.Fatalf("trial %d: Appended() = %d, want %d", trial, got, want)
		}
		if st.StructureVersion() != appends {
			t.Fatalf("trial %d: StructureVersion %d after %d appends", trial, st.StructureVersion(), appends)
		}
		crossCheckAgainstFresh(t, st)
	}
}

// crossCheckAgainstFresh rebuilds a state from scratch over st's full
// instance, replays st's explicit labels, and requires identical M_P,
// identical per-tuple labels, and the same negative antichain.
func crossCheckAgainstFresh(t *testing.T, st *State) {
	t.Helper()
	fresh, err := NewState(st.Relation().Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.Relation().Len(); i++ {
		if l := st.Label(i); l.IsExplicit() {
			if _, err := fresh.Apply(i, l); err != nil {
				t.Fatalf("replaying label %d (%v): %v", i, l, err)
			}
		}
	}
	if !fresh.MP().Equal(st.MP()) {
		t.Fatalf("M_P diverged: incremental %v, fresh %v", st.MP(), fresh.MP())
	}
	if a, b := negKeys(st), negKeys(fresh); len(a) != len(b) {
		t.Fatalf("negative antichains diverged: %v vs %v", a, b)
	} else {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("negative antichains diverged: %v vs %v", a, b)
			}
		}
	}
	for i := 0; i < st.Relation().Len(); i++ {
		if st.Label(i) != fresh.Label(i) {
			t.Fatalf("tuple %d: incremental label %v, fresh label %v", i, st.Label(i), fresh.Label(i))
		}
	}
}

func negKeys(st *State) []string {
	keys := make([]string, 0, len(st.Negatives()))
	for _, neg := range st.Negatives() {
		keys = append(keys, neg.Key())
	}
	sort.Strings(keys)
	return keys
}

func attrNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return names
}

func TestAppendRejectsArityMismatchWhole(t *testing.T) {
	rel := relation.MustBuild(relation.MustSchema("a", "b"),
		[]any{1, 1}, []any{1, 2})
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Relation().Len()
	good := relation.Tuple{values.Int(3), values.Int(3)}
	bad := relation.Tuple{values.Int(4)}
	if _, err := st.Append([]relation.Tuple{good, bad}); err == nil {
		t.Fatal("Append accepted a wrong-arity tuple")
	}
	if st.Relation().Len() != before {
		t.Fatalf("failed Append grew the instance to %d tuples", st.Relation().Len())
	}
	if st.StructureVersion() != 0 {
		t.Fatalf("failed Append bumped StructureVersion to %d", st.StructureVersion())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendClassifiesArrivalsImmediately pins the arrival-time
// propagation: tuples whose signature is already implied by the
// hypothesis arrive labeled, informative arrivals un-converge the
// session, and empty batches are no-ops.
func TestAppendClassifiesArrivalsImmediately(t *testing.T) {
	rel := relation.MustBuild(relation.MustSchema("a", "b", "c", "d"),
		[]any{1, 1, 2, 2}, // a=b, c=d -> labeled +, M_P = {ab}{cd}
		[]any{3, 4, 5, 6}, // all distinct -> labeled -, neg = bottom
	)
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(0, Positive); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(1, Negative); err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("session not converged: %v", st.Progress())
	}
	if newly, err := st.Append(nil); err != nil || newly != nil {
		t.Fatalf("empty Append = (%v, %v), want (nil, nil)", newly, err)
	}
	if st.Version() != 2 || st.StructureVersion() != 0 {
		t.Fatalf("empty Append bumped versions: %d/%d", st.Version(), st.StructureVersion())
	}

	// Arrivals refining M_P (existing a=b,c=d class; new all-equal
	// class) are implied positive on arrival; an all-distinct arrival
	// joins the bottom class, implied negative.
	batch := []relation.Tuple{
		{values.Int(7), values.Int(7), values.Int(8), values.Int(8)},     // existing + class
		{values.Int(9), values.Int(9), values.Int(9), values.Int(9)},     // new class, implied +
		{values.Int(10), values.Int(11), values.Int(12), values.Int(13)}, // distinct: implied -
	}
	newly, err := st.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 3 {
		t.Fatalf("Append implied %d arrivals, want 3 (%v)", len(newly), newly)
	}
	if !st.Done() {
		t.Fatalf("implied-only arrivals broke convergence: %v", st.Progress())
	}
	if got := []Label{st.Label(2), st.Label(3), st.Label(4)}; got[0] != ImpliedPositive ||
		got[1] != ImpliedPositive || got[2] != ImpliedNegative {
		t.Fatalf("arrival labels = %v", got)
	}

	// An informative arrival (a=b only: M_P does not refine it, and its
	// meet with M_P keeps the (a,b) pair, so no negative dominates it)
	// re-opens the session.
	newly, err = st.Append([]relation.Tuple{{values.Int(20), values.Int(20), values.Int(21), values.Int(22)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 0 {
		t.Fatalf("informative arrival reported implied: %v", newly)
	}
	if st.Done() {
		t.Fatal("informative arrival left the session converged")
	}
	if st.InformativeCount() != 1 {
		t.Fatalf("informative count %d, want 1", st.InformativeCount())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendExistingClassesAllocsIndependentOfBatch is the ingestion
// allocation guard: arrivals whose signature classes already exist —
// informative ones and settled ones alike — register through reused
// scratch, so an Append batch allocates only amortized slice growth
// (the instance arrays, the member array, the returned newly-implied
// list), never per tuple. Measured: 4 allocations per Append of 8 and
// of 1,024 tuples with the classes' members in one array (means of 4.2
// and 4.5 before AllocsPerRun rounds them down, so the bound leaves
// one for collection cycles); 4 and 24 with a member list per class,
// which regrew one by one.
func TestAppendExistingClassesAllocsIndependentOfBatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 6
	serial := 0
	rel := relation.New(relation.MustSchema(attrNames(n)...))
	for _, tu := range randomTuples(r, n, 400, &serial) {
		rel.MustAppend(tu)
	}
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	goal := partition.Uniform(r, n)
	for k := 0; k < 3; k++ {
		labelRandomInformative(t, r, st, goal)
	}
	// Batches copy existing tuples, so every arrival lands in a class
	// that is already registered; some of those classes are settled.
	batch := func(size int) []relation.Tuple {
		out := make([]relation.Tuple, size)
		for i := range out {
			out[i] = st.Relation().Tuple(r.Intn(st.BaseLen())).Clone()
		}
		return out
	}
	small, large := batch(8), batch(1024)
	classes := st.ClassCount()
	allocs := func(b []relation.Tuple) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := st.Append(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	aSmall, aLarge := allocs(small), allocs(large)
	if st.ClassCount() != classes {
		t.Fatalf("arrivals created %d new classes", st.ClassCount()-classes)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs per Append: %.1f for %d tuples, %.1f for %d tuples", aSmall, len(small), aLarge, len(large))
	// The member array grows at most once per batch, whatever the
	// class count, and amortized growth averages out over the runs.
	if aSmall > 5 || aLarge > 5 {
		t.Fatalf("Append allocates %.1f times for %d tuples, %.1f for %d: allocation grows with batch size",
			aLarge, len(large), aSmall, len(small))
	}
}

// TestCheckInvariantsCoversSig corrupts what Sig(i) depends on and
// requires CheckInvariants to notice: the class table is the only
// record of a tuple's signature, so the invariants check class
// membership both ways and recompute each signature from the tuple's
// values.
func TestCheckInvariantsCoversSig(t *testing.T) {
	fresh := func() *State {
		r := rand.New(rand.NewSource(3))
		serial := 0
		rel := relation.New(relation.MustSchema(attrNames(5)...))
		for _, tu := range randomTuples(r, 5, 60, &serial) {
			rel.MustAppend(tu)
		}
		st, err := NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if st.ClassCount() < 2 {
			t.Fatal("instance has one class; cannot mis-map a tuple")
		}
		return st
	}

	// A tuple mapped to another class.
	st := fresh()
	i := st.ClassMembers(0)[0]
	st.classOf[i] = 1
	if err := st.CheckInvariants(); err == nil {
		t.Fatalf("CheckInvariants accepted tuple %d mapped to the wrong class", i)
	}

	// A tuple whose values no longer carry its class's signature.
	st = fresh()
	for c := range st.ClassCount() {
		sig := st.ClassSig(c)
		if sig.IsTop() {
			continue
		}
		// Tuple materialises a copy, so rebuild the instance with the
		// tuple's cells all set to its first.
		i := int(st.ClassMembers(c)[0])
		tu := st.Relation().Tuple(i)
		for c := range tu {
			tu[c] = tu[0]
		}
		corrupt := relation.New(st.rel.Schema())
		for j := range st.rel.Len() {
			if j == i {
				corrupt.MustAppend(tu)
			} else {
				corrupt.MustAppend(st.rel.Tuple(j))
			}
		}
		st.rel = corrupt
		if err := st.CheckInvariants(); err == nil {
			t.Fatalf("CheckInvariants accepted tuple %d with values %v under signature %v", i, tu, sig)
		}
		return
	}
	t.Fatal("every class is Top; cannot change a signature")
}

// classTuples returns count tuples over n attributes whose Eq
// signatures cycle through the first classes partitions of All(n), so
// they fall into exactly min(classes, count) signature classes.
func classTuples(n, classes, count int, serial *int) []relation.Tuple {
	sigs := partition.All(n)[:classes]
	out := make([]relation.Tuple, count)
	for i := range out {
		sig := sigs[i%classes]
		base := int64(*serial) << 8
		*serial++
		tu := make(relation.Tuple, n)
		for c := range tu {
			tu[c] = values.Int(base + int64(sig.BlockOf(c)))
		}
		out[i] = tu
	}
	return out
}

// TestNewStateClassAllocs guards the batch-sized class registration:
// NewState and an Append batch grow each column of the flat class table
// once per batch, so the allocations of a registration grow by at most
// one per eight new classes (the doubling class index, the staged
// labels outgrowing the stack), not by the two a class cost with a
// partition per class and a map index, or the eight before that.
// Instances of equal size that differ only in their class count
// isolate the per-class cost.
func TestNewStateClassAllocs(t *testing.T) {
	const n, tuples, runs = 6, 240, 10
	serial := 0
	build := func(classes int) *relation.Relation {
		rel := relation.New(relation.MustSchema(attrNames(n)...))
		rel.MustAppend(classTuples(n, classes, tuples, &serial)...)
		return rel
	}
	newState := func(classes int) float64 {
		rel := build(classes)
		return testing.AllocsPerRun(runs, func() {
			if _, err := NewState(rel); err != nil {
				t.Fatal(err)
			}
		})
	}
	// appendBatch measures an Append of a batch opening classes new
	// classes, each run on its own fresh one-class state.
	appendBatch := func(classes int) float64 {
		states := make([]*State, runs+1) // AllocsPerRun adds one warm-up run
		for i := range states {
			st, err := NewState(build(1))
			if err != nil {
				t.Fatal(err)
			}
			states[i] = st
		}
		// Class 0 of All(n) is the one class every state holds already.
		batch := classTuples(n, classes+1, tuples, &serial)
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := states[next].Append(batch); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	// Each registration is held to one that opens a single class, so
	// the per-batch slabs cancel out and the difference is the cost of
	// the extra classes.
	const perClass = 0.125
	oneNew, oneAppend := newState(1), appendBatch(1)
	for _, classes := range []int{8, 40, 120, 200} {
		gotNew, gotAppend := newState(classes), appendBatch(classes)
		t.Logf("%3d classes: NewState %.0f allocations (%.0f for one), Append opening them %.0f (%.0f for one)",
			classes, gotNew, oneNew, gotAppend, oneAppend)
		if per := (gotNew - oneNew) / float64(classes-1); per > perClass {
			t.Errorf("NewState: %.2f allocations per extra class over %d classes, want <= %g", per, classes, perClass)
		}
		if per := (gotAppend - oneAppend) / float64(classes-1); per > perClass {
			t.Errorf("Append: %.2f allocations per extra class over %d new classes, want <= %g", per, classes, perClass)
		}
	}
}

// TestClassIndexHashCollision forces two signatures onto one home
// slot: the later class must take the next free slot, and both must
// still be found, at registration and by lookup.
func TestClassIndexHashCollision(t *testing.T) {
	const n = 4
	serial := 0
	st, err := NewState(relation.New(relation.MustSchema(attrNames(n)...)))
	if err != nil {
		t.Fatal(err)
	}
	sigs := partition.All(n)
	tuple := func(sig partition.P) relation.Tuple {
		serial++
		tu := make(relation.Tuple, n)
		for c := range tu {
			tu[c] = values.Int(int64(serial)<<8 + int64(sig.BlockOf(c)))
		}
		return tu
	}
	a := sigs[1]
	if _, err := st.Append([]relation.Tuple{tuple(a)}); err != nil {
		t.Fatal(err)
	}
	// Pick b so that the second slot past its home is free, and occupy
	// its home slot and the one after it with class 0 (signature a).
	home := func(p partition.P) int {
		var labels [n]uint8
		for i := range labels {
			labels[i] = uint8(p.BlockOf(i))
		}
		return st.cls.home(partition.HashLabels(labels[:]))
	}
	slots := st.cls.slots
	mask := len(slots) - 1
	ha := home(a)
	var b partition.P
	for _, sig := range sigs[2:] {
		if (home(sig)+2)&mask != ha {
			b = sig
			break
		}
	}
	hb := home(b)
	slots[hb], slots[(hb+1)&mask] = 1, 1
	if _, err := st.Append([]relation.Tuple{tuple(b), tuple(a), tuple(b)}); err != nil {
		t.Fatal(err)
	}
	if got := st.ClassCount(); got != 2 {
		t.Fatalf("%d classes, want 2", got)
	}
	if got := slots[(hb+2)&mask]; got != 2 {
		t.Fatalf("slot two past b's home holds %d, want class 1 (stored as 2)", got)
	}
	if got, want := st.classOf, []int32{0, 1, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("tuple classes %v, want %v", got, want)
	}
	var c partition.P
	for _, sig := range sigs[2:] {
		if !sig.Equal(b) {
			c = sig
			break
		}
	}
	if st.lookup(a) != 0 || st.lookup(b) != 1 || st.lookup(c) != -1 {
		t.Fatalf("lookup(a, b, c) = %d, %d, %d; want 0, 1, -1", st.lookup(a), st.lookup(b), st.lookup(c))
	}
}
