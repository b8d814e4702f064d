package partition

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// legacyLessEq is the scan-based refinement test, kept here so the
// pair-bitset fast path is always cross-checked against the original
// definition.
func legacyLessEq(p, q P) bool {
	if len(p.labels) != len(q.labels) {
		return false
	}
	img := make([]int, p.blocks)
	for i := range img {
		img[i] = -1
	}
	for i, pb := range p.labels {
		if img[pb] == -1 {
			img[pb] = q.labels[i]
		} else if img[pb] != q.labels[i] {
			return false
		}
	}
	return true
}

func randomCached(r *rand.Rand, n int) P {
	p := Uniform(r, n).Cached()
	p.PairSet() // force the bitset so the fast paths engage
	return p
}

func TestPairSetMatchesPairs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(14)
		p := Uniform(r, n)
		set := p.PairSet()
		want := map[int]bool{}
		for _, pr := range p.Pairs() {
			i, j := pr[0], pr[1]
			idx := 0
			// Recompute the row-major index independently.
			for a := 0; a < i; a++ {
				idx += n - a - 1
			}
			idx += j - i - 1
			want[idx] = true
		}
		count := 0
		for idx := 0; idx < n*(n-1)/2; idx++ {
			got := set[idx>>6]&(1<<(idx&63)) != 0
			if got != want[idx] {
				t.Fatalf("n=%d p=%v pair bit %d = %v, want %v", n, p, idx, got, want[idx])
			}
			if got {
				count++
			}
		}
		if count != p.PairCount() {
			t.Fatalf("p=%v PairSet has %d bits, PairCount says %d", p, count, p.PairCount())
		}
		if set.Count() != p.PairCount() {
			t.Fatalf("p=%v Count() = %d, want %d", p, set.Count(), p.PairCount())
		}
	}
}

func TestBitsFastPathsMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 2 + r.Intn(12)
		p, q, s := randomCached(r, n), randomCached(r, n), randomCached(r, n)

		if got, want := p.LessEq(q), legacyLessEq(p, q); got != want {
			t.Fatalf("LessEq(%v, %v) = %v, want %v", p, q, got, want)
		}
		if got, want := p.MeetPairCount(q), p.Meet(q).PairCount(); got != want {
			t.Fatalf("MeetPairCount(%v, %v) = %d, want %d", p, q, got, want)
		}
		if got, want := p.MeetLessEq(q, s), p.Meet(q).LessEq(s); got != want {
			t.Fatalf("MeetLessEq(%v, %v, %v) = %v, want %v", p, q, s, got, want)
		}
		m := p.Meet(q).Cached()
		if got, want := IntersectSubset3(p.PairSet(), q.PairSet(), s.PairSet(), m.PairSet()),
			p.Meet(q).Meet(s).LessEq(m); got != want {
			t.Fatalf("IntersectSubset3 over (%v,%v,%v) ⊆ %v = %v, want %v", p, q, s, m, got, want)
		}
	}
}

func TestMeetLessEqSizeMismatch(t *testing.T) {
	p := MustFromBlocks(4, [][]int{{0, 1}}).Cached()
	q := MustFromBlocks(4, [][]int{{2, 3}}).Cached()
	r := Top(5)
	if p.MeetLessEq(q, r) {
		t.Error("MeetLessEq with mismatched bound must be false, like LessEq")
	}
	defer func() {
		if recover() == nil {
			t.Error("MeetLessEq with mismatched operands must panic, like Meet")
		}
	}()
	p.MeetLessEq(Top(5), r)
}

func TestCachedKeyStable(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := Uniform(r, 1+r.Intn(30))
		cached := p.Cached()
		if cached.Key() != p.Key() {
			t.Fatalf("cached key %q differs from uncached %q", cached.Key(), p.Key())
		}
		if cached.Key() != cached.Key() {
			t.Fatal("cached key not stable")
		}
		if !cached.Equal(p) || !p.Equal(cached) {
			t.Fatal("Cached must not change partition identity")
		}
	}
}

// TestCachedConcurrent exercises the lazy cache from many goroutines;
// run with -race to verify the atomic install discipline.
func TestCachedConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := Uniform(r, 12).Cached()
	q := Uniform(r, 12).Cached()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = p.Key()
				_ = p.PairSet()
				_ = p.MeetPairCount(q)
				_ = p.MeetLessEq(q, p)
				_ = p.LessEq(q)
			}
		}()
	}
	wg.Wait()
	if got, want := p.MeetPairCount(q), p.Meet(q).PairCount(); got != want {
		t.Fatalf("post-race MeetPairCount = %d, want %d", got, want)
	}
}

// TestFromCanonicalMatchesNew holds FromCanonical and FillPairs to New:
// byte and int labels give New's labels, blocks, hash and pair bitset,
// whatever the size (no pair word at one element, several past eleven),
// and labels that are not canonical panic.
func TestFromCanonicalMatchesNew(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		want := Uniform(r, 1+r.Intn(16))
		bytes := make([]uint8, want.N())
		for i, l := range want.labels {
			bytes[i] = uint8(l)
		}
		for _, p := range []P{FromCanonical(want.labels), FromCanonical(bytes)} {
			if !p.Equal(want) || p.BlockCount() != want.BlockCount() || HashLabels(p.labels) != HashLabels(bytes) {
				t.Fatalf("FromCanonical = %v (%d blocks), want %v", p, p.BlockCount(), want)
			}
		}
		set := make(PairSet, PairWords(want.N()))
		if n := FillPairs(set, bytes); !slices.Equal(set, want.PairSet()) || n != want.PairCount() {
			t.Fatalf("FillPairs(%v) = %v (%d pairs), want %v (%d)", bytes, set, n, want.PairSet(), want.PairCount())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromCanonical accepted non-canonical labels")
		}
	}()
	FromCanonical([]int{0, 2, 1})
}
