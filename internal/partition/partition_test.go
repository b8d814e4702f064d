package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustBlocks(t *testing.T, n int, blocks [][]int) P {
	t.Helper()
	p, err := FromBlocks(n, blocks)
	if err != nil {
		t.Fatalf("FromBlocks(%d, %v): %v", n, blocks, err)
	}
	return p
}

func TestNewCanonicalizes(t *testing.T) {
	a := New([]int{5, 9, 5, 2})
	b := New([]int{0, 1, 0, 2})
	if !a.Equal(b) {
		t.Errorf("New did not canonicalize: %v vs %v", a, b)
	}
	if a.BlockCount() != 3 {
		t.Errorf("BlockCount = %d, want 3", a.BlockCount())
	}
}

func TestBottomTop(t *testing.T) {
	b := Bottom(4)
	if !b.IsBottom() || b.IsTop() {
		t.Errorf("Bottom(4) misclassified: %v", b)
	}
	if b.BlockCount() != 4 || b.PairCount() != 0 {
		t.Errorf("Bottom(4) blocks=%d pairs=%d", b.BlockCount(), b.PairCount())
	}
	top := Top(4)
	if !top.IsTop() || top.IsBottom() {
		t.Errorf("Top(4) misclassified: %v", top)
	}
	if top.BlockCount() != 1 || top.PairCount() != 6 {
		t.Errorf("Top(4) blocks=%d pairs=%d", top.BlockCount(), top.PairCount())
	}
	one := Bottom(1)
	if !one.IsTop() || !one.IsBottom() {
		t.Error("partition of a single element should be both Top and Bottom")
	}
}

func TestFromBlocks(t *testing.T) {
	p := mustBlocks(t, 5, [][]int{{1, 3}, {2, 4}})
	if !p.SameBlock(1, 3) || !p.SameBlock(2, 4) {
		t.Errorf("blocks not joined: %v", p)
	}
	if p.SameBlock(0, 1) || p.SameBlock(1, 2) {
		t.Errorf("blocks spuriously joined: %v", p)
	}
	if p.BlockCount() != 3 {
		t.Errorf("BlockCount = %d, want 3", p.BlockCount())
	}
	if _, err := FromBlocks(3, [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlapping blocks accepted")
	}
	if _, err := FromBlocks(3, [][]int{{0, 7}}); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestFromPairs(t *testing.T) {
	p, err := FromPairs(5, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Transitive closure: 0,1,2 together.
	if !p.SameBlock(0, 2) {
		t.Errorf("transitivity lost: %v", p)
	}
	if p.BlockCount() != 3 {
		t.Errorf("BlockCount = %d, want 3", p.BlockCount())
	}
	if _, err := FromPairs(3, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestFromEqual(t *testing.T) {
	vals := []string{"x", "y", "x", "z", "y"}
	p := FromEqual(len(vals), func(i, j int) bool { return vals[i] == vals[j] })
	want := mustBlocks(t, 5, [][]int{{0, 2}, {1, 4}, {3}})
	if !p.Equal(want) {
		t.Errorf("FromEqual = %v, want %v", p, want)
	}
}

// TestEqualLabelsKeyMatchesFromEqual holds the allocation-free
// signature path (EqualLabels into a reused buffer, AppendKey into a
// reused key) to FromEqual's partition and Key, including the "<27>"
// labels of partitions with more than 26 blocks, and checks that the
// reused path allocates nothing.
func TestEqualLabelsKeyMatchesFromEqual(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var labels []int
	var key []byte
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(1 + r.Intn(n))
		}
		eq := func(i, j int) bool { return vals[i] == vals[j] }
		want := FromEqual(n, eq)
		labels = append(labels[:0], make([]int, n)...)
		blocks := EqualLabels(labels, eq)
		key = AppendKey(key[:0], labels)
		if got := New(labels); !got.Equal(want) || blocks != want.BlockCount() {
			t.Fatalf("EqualLabels(%v) = %v (%d blocks), FromEqual = %v", vals, labels, blocks, want)
		}
		if string(key) != want.Key() {
			t.Fatalf("AppendKey(%v) = %q, Key = %q", labels, key, want.Key())
		}
	}
	vals := []int{1, 2, 1, 3, 2, 4}
	labels = make([]int, len(vals))
	key = make([]byte, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		EqualLabels(labels, func(i, j int) bool { return vals[i] == vals[j] })
		key = AppendKey(key[:0], labels)
	}); n != 0 {
		t.Errorf("EqualLabels + AppendKey allocate %.1f times per call, want 0", n)
	}
}

func TestBlocksAndSizes(t *testing.T) {
	p := mustBlocks(t, 5, [][]int{{1, 3}, {2, 4}})
	blocks := p.Blocks()
	want := [][]int{{0}, {1, 3}, {2, 4}}
	if !reflect.DeepEqual(blocks, want) {
		t.Errorf("Blocks() = %v, want %v", blocks, want)
	}
	if !reflect.DeepEqual(p.BlockSizes(), []int{1, 2, 2}) {
		t.Errorf("BlockSizes() = %v", p.BlockSizes())
	}
	ns := p.NonSingletonBlocks()
	if !reflect.DeepEqual(ns, [][]int{{1, 3}, {2, 4}}) {
		t.Errorf("NonSingletonBlocks() = %v", ns)
	}
}

func TestPairsAndAtoms(t *testing.T) {
	p := mustBlocks(t, 4, [][]int{{0, 1, 2}})
	pairs := p.Pairs()
	if !reflect.DeepEqual(pairs, [][2]int{{0, 1}, {0, 2}, {1, 2}}) {
		t.Errorf("Pairs() = %v", pairs)
	}
	atoms := p.Atoms()
	if !reflect.DeepEqual(atoms, [][2]int{{0, 1}, {0, 2}}) {
		t.Errorf("Atoms() = %v", atoms)
	}
	if p.PairCount() != 3 {
		t.Errorf("PairCount() = %d, want 3", p.PairCount())
	}
	// Atoms regenerate the partition.
	back, err := FromPairs(4, atoms)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(p) {
		t.Errorf("FromPairs(Atoms()) = %v, want %v", back, p)
	}
}

func TestLessEq(t *testing.T) {
	bottom := Bottom(5)
	top := Top(5)
	q1 := mustBlocks(t, 5, [][]int{{1, 3}})
	q2 := mustBlocks(t, 5, [][]int{{1, 3}, {2, 4}})
	for _, tc := range []struct {
		a, b P
		want bool
	}{
		{bottom, top, true},
		{top, bottom, false},
		{q1, q2, true}, // Q1 has fewer constraints: Q1 ≤ Q2
		{q2, q1, false},
		{q1, q1, true},
		{bottom, q1, true},
		{q1, top, true},
		{q2, top, true},
		{mustBlocks(t, 5, [][]int{{0, 1}}), q2, false},
	} {
		if got := tc.a.LessEq(tc.b); got != tc.want {
			t.Errorf("%v.LessEq(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if !q1.Less(q2) || q1.Less(q1) {
		t.Error("Less misbehaves")
	}
	if q1.LessEq(Bottom(4)) {
		t.Error("LessEq across sizes should be false")
	}
}

func TestMeetJoinBasics(t *testing.T) {
	q1 := mustBlocks(t, 5, [][]int{{1, 3}})
	q2 := mustBlocks(t, 5, [][]int{{1, 3}, {2, 4}})
	if got := q1.Meet(q2); !got.Equal(q1) {
		t.Errorf("Q1 ⋀ Q2 = %v, want Q1", got)
	}
	if got := q1.Join(q2); !got.Equal(q2) {
		t.Errorf("Q1 ⋁ Q2 = %v, want Q2", got)
	}
	a := mustBlocks(t, 4, [][]int{{0, 1}, {2, 3}})
	b := mustBlocks(t, 4, [][]int{{1, 2}})
	if got := a.Meet(b); !got.Equal(Bottom(4)) {
		t.Errorf("disjoint meet = %v, want bottom", got)
	}
	if got := a.Join(b); !got.Equal(Top(4)) {
		t.Errorf("chained join = %v, want top", got)
	}
}

func TestKeyDistinguishes(t *testing.T) {
	seen := map[string]P{}
	Enumerate(5, func(p P) bool {
		k := p.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key %q shared by %v and %v", k, prev, p)
		}
		seen[k] = p
		return true
	})
	if len(seen) != Bell(5) {
		t.Errorf("enumerated %d partitions, want %d", len(seen), Bell(5))
	}
}

func TestStringAndFormat(t *testing.T) {
	p := mustBlocks(t, 5, [][]int{{1, 3}, {2, 4}})
	if got := p.String(); got != "{0}{1,3}{2,4}" {
		t.Errorf("String() = %q", got)
	}
	names := []string{"From", "To", "Airline", "City", "Discount"}
	if got := p.Format(names); got != "{From}{To,City}{Airline,Discount}" {
		t.Errorf("Format() = %q", got)
	}
	if got := p.FormatAtoms(names); got != "To=City ∧ Airline=Discount" {
		t.Errorf("FormatAtoms() = %q", got)
	}
	if got := Bottom(3).FormatAtoms([]string{"a", "b", "c"}); got != "⊥ (no constraints)" {
		t.Errorf("FormatAtoms(bottom) = %q", got)
	}
}

func TestBell(t *testing.T) {
	want := []int{1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975}
	for n, w := range want {
		if got := Bell(n); got != w {
			t.Errorf("Bell(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestEnumerateCountsMatchBell(t *testing.T) {
	for n := 0; n <= 8; n++ {
		count := 0
		Enumerate(n, func(P) bool { count++; return true })
		if count != Bell(n) {
			t.Errorf("Enumerate(%d) yielded %d, want Bell=%d", n, count, Bell(n))
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	count := 0
	Enumerate(6, func(P) bool { count++; return count < 10 })
	if count != 10 {
		t.Errorf("early stop after %d, want 10", count)
	}
}

func TestEnumerateRefinementsOf(t *testing.T) {
	p := mustBlocks(t, 5, [][]int{{1, 3}, {2, 4}})
	var got []P
	EnumerateRefinementsOf(p, func(q P) bool {
		got = append(got, q)
		return true
	})
	if len(got) != CountRefinementsOf(p) {
		t.Fatalf("enumerated %d refinements, count says %d", len(got), CountRefinementsOf(p))
	}
	// Independently: refinements of p are exactly {q : q ≤ p}.
	want := 0
	Enumerate(5, func(q P) bool {
		if q.LessEq(p) {
			want++
		}
		return true
	})
	if len(got) != want {
		t.Errorf("refinement cone size %d, brute force says %d", len(got), want)
	}
	seen := map[string]bool{}
	for _, q := range got {
		if !q.LessEq(p) {
			t.Errorf("refinement %v not ≤ %v", q, p)
		}
		if seen[q.Key()] {
			t.Errorf("refinement %v enumerated twice", q)
		}
		seen[q.Key()] = true
	}
}

func TestCountRefinements(t *testing.T) {
	// Refinements of Top(n) are all partitions.
	for n := 1; n <= 6; n++ {
		if got := CountRefinementsOf(Top(n)); got != Bell(n) {
			t.Errorf("CountRefinementsOf(Top(%d)) = %d, want %d", n, got, Bell(n))
		}
	}
	// Bottom has exactly one refinement: itself.
	if got := CountRefinementsOf(Bottom(6)); got != 1 {
		t.Errorf("CountRefinementsOf(Bottom) = %d", got)
	}
}

func TestUniformIsUniform(t *testing.T) {
	// Chi-squared style sanity: each of the Bell(4)=15 partitions should
	// appear with frequency close to 1/15.
	r := rand.New(rand.NewSource(7))
	const samples = 30000
	counts := map[string]int{}
	for i := 0; i < samples; i++ {
		counts[Uniform(r, 4).Key()]++
	}
	if len(counts) != Bell(4) {
		t.Fatalf("sampled %d distinct partitions, want %d", len(counts), Bell(4))
	}
	want := float64(samples) / float64(Bell(4))
	for k, c := range counts {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Errorf("partition %q sampled %d times, want about %.0f", k, c, want)
		}
	}
}

func TestRandomWithBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(8)
		k := 1 + r.Intn(n)
		p := RandomWithBlocks(r, n, k)
		if p.N() != n || p.BlockCount() != k {
			t.Fatalf("RandomWithBlocks(%d,%d) = %v (blocks=%d)", n, k, p, p.BlockCount())
		}
	}
}

func TestRandomGoal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		p := RandomGoal(r, 6, 2)
		if p.PairCount() < 2 {
			t.Errorf("RandomGoal pairs = %d, want >= 2", p.PairCount())
		}
	}
	if got := RandomGoal(r, 3, 100); !got.IsTop() {
		t.Errorf("RandomGoal should saturate at Top, got %v", got)
	}
}

// randomPartition draws a partition for property tests (biased toward
// interesting shapes; uniformity is not needed for laws).
func randomPartition(r *rand.Rand, n int) P {
	return Uniform(r, n)
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 400}
}

func TestPropertyLatticeLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		p, q, s := randomPartition(r, n), randomPartition(r, n), randomPartition(r, n)

		meet := p.Meet(q)
		join := p.Join(q)
		// Commutativity.
		if !meet.Equal(q.Meet(p)) || !join.Equal(q.Join(p)) {
			return false
		}
		// Bounds.
		if !meet.LessEq(p) || !meet.LessEq(q) || !p.LessEq(join) || !q.LessEq(join) {
			return false
		}
		// Greatest lower bound / least upper bound w.r.t. a third element.
		if s.LessEq(p) && s.LessEq(q) && !s.LessEq(meet) {
			return false
		}
		if p.LessEq(s) && q.LessEq(s) && !join.LessEq(s) {
			return false
		}
		// Absorption.
		if !p.Meet(p.Join(q)).Equal(p) || !p.Join(p.Meet(q)).Equal(p) {
			return false
		}
		// Idempotence.
		return p.Meet(p).Equal(p) && p.Join(p).Equal(p)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyMeetAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		p, q, s := randomPartition(r, n), randomPartition(r, n), randomPartition(r, n)
		return p.Meet(q).Meet(s).Equal(p.Meet(q.Meet(s))) &&
			p.Join(q).Join(s).Equal(p.Join(q.Join(s)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyLessEqIsPairSubset(t *testing.T) {
	pairSet := func(p P) map[[2]int]bool {
		m := map[[2]int]bool{}
		for _, pr := range p.Pairs() {
			m[pr] = true
		}
		return m
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		p, q := randomPartition(r, n), randomPartition(r, n)
		qp := pairSet(q)
		subset := true
		for _, pr := range p.Pairs() {
			if !qp[pr] {
				subset = false
				break
			}
		}
		return p.LessEq(q) == subset
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyLessEqPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		p, q, s := randomPartition(r, n), randomPartition(r, n), randomPartition(r, n)
		// Reflexive.
		if !p.LessEq(p) {
			return false
		}
		// Antisymmetric.
		if p.LessEq(q) && q.LessEq(p) && !p.Equal(q) {
			return false
		}
		// Transitive.
		if p.LessEq(q) && q.LessEq(s) && !p.LessEq(s) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyPairCountMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		p, q := randomPartition(r, n), randomPartition(r, n)
		if p.LessEq(q) && p.PairCount() > q.PairCount() {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTripAtoms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		p := randomPartition(r, n)
		back, err := FromPairs(n, p.Atoms())
		return err == nil && back.Equal(p)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestMeetJoinPanicOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Meet of mismatched sizes did not panic")
		}
	}()
	Bottom(3).Meet(Bottom(4))
}
