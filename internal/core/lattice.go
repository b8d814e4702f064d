package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
)

// lattice caches the hypothesis side of the signature lattice for one
// State in pair-bitset form: M_P and the negative antichain, refreshed
// on the Apply that changes them. The signature side is the class
// table's pair slab, computed once per class at registration. On top
// of both sits the projection table the lookahead simulations run
// over.
type lattice struct {
	mp   partition.PairSet   // pairs of the current M_P
	negs []partition.PairSet // pairs of each maximal negative, in State.negs order

	proj projTable
}

// projTable is the informative population of one State.Version seen
// through M_P. A simulated label on a class with pair set g reaches an
// informative class h only through its projection H = M_P ∧ sig_h:
//
//	negative: h settles iff H ≤ g
//	positive: h settles iff M_P ∧ g ≤ H, or g ∧ H ≤ some maximal negative
//
// so classes with equal projections merge into one entry with their
// summed unlabeled counts, and the prune-count kernel (prunes) loops
// over the D distinct projections, not every informative class. D
// collapses once M_P moves.
//
// Layout: the first pair-word of every entry sits in one dense array;
// the remaining words (only above 11 attributes) sit in a second. The
// negatives are flattened the same way.
//
// The first simulation after an Apply or Append builds the table (never
// NewState or Append: they must not pay for scoring that may not
// follow), under mu since parallel scorers race to it, and publishes it
// by storing the version stamp. Buffers are reused across rebuilds.
type projTable struct {
	mu    sync.Mutex
	built atomic.Int64 // State.Version+1 the table holds; 0 = never built

	tail     int      // pair words per set beyond the first
	first    []uint64 // first word of each projection
	rest     []uint64 // remaining words, tail per projection
	weight   []int32  // unlabeled tuples per projection
	negFirst []uint64 // first word of each maximal negative
	negRest  []uint64 // remaining words, tail per negative
}

// buildSlots is a build's open-addressing index (entry+1, 0 = empty).
// Nothing in it outlives a build, so one buffer serves every session.
// Not a sync.Pool: collections and GOMAXPROCS changes drain those, and
// a rebuild would then allocate.
var buildSlots struct {
	sync.Mutex
	s []int32
}

// split returns the first pair-word of p and the remaining words. The
// pair set of a single attribute is empty and reads as a zero word.
func split(p partition.PairSet) (uint64, partition.PairSet) {
	if len(p) == 0 {
		return 0, nil
	}
	return p[0], p[1:]
}

func (t *projTable) restOf(d int) partition.PairSet    { return t.rest[d*t.tail : (d+1)*t.tail] }
func (t *projTable) negRestOf(k int) partition.PairSet { return t.negRest[k*t.tail : (k+1)*t.tail] }

// build fills the table from the informative classes inf of cls,
// merging equal projections through an open-addressing index. The
// columns are sized for one entry per class up front, so a build grows
// each at most once.
func (t *projTable) build(lat *lattice, cls *classTable, inf []int32) {
	mp0, mpRest := split(lat.mp)
	t.tail = len(mpRest)
	t.first, t.weight = reserve(t.first[:0], len(inf)), reserve(t.weight[:0], len(inf))
	t.rest = reserve(t.rest[:0], len(inf)*t.tail)
	lg := bits.Len(uint(max(2*len(inf)-1, 1))) // at most half the slots fill
	size, shift := 1<<lg, 64-lg
	buildSlots.Lock()
	defer buildSlots.Unlock()
	slots := reserve(buildSlots.s[:0], size)[:size]
	clear(slots)
	buildSlots.s = slots
	for _, hi := range inf {
		// Append as a candidate entry; drop it if an equal one is indexed.
		d := len(t.first)
		h0, hRest := split(cls.sig(int(hi)))
		t.first = append(t.first, mp0&h0)
		hash := (mp0 & h0) * 0x9e3779b97f4a7c15
		for w, x := range hRest {
			x &= mpRest[w]
			t.rest = append(t.rest, x)
			hash = (hash ^ x) * 0x9e3779b97f4a7c15
		}
		for s := hash >> shift; ; s = (s + 1) & uint64(size-1) {
			e := int(slots[s]) - 1
			if e < 0 {
				slots[s] = int32(d + 1)
				t.weight = append(t.weight, cls.unlabeled[hi])
				break
			}
			if t.first[e] == t.first[d] && slices.Equal(t.restOf(e), t.restOf(d)) {
				t.weight[e] += cls.unlabeled[hi]
				t.first, t.rest = t.first[:d], t.rest[:d*t.tail]
				break
			}
		}
	}
	// Room for the first negatives of a dialogue, so they do not regrow it.
	t.negFirst, t.negRest = reserve(t.negFirst[:0], 4), reserve(t.negRest[:0], 4*t.tail)
	for _, n := range lat.negs {
		n0, nRest := split(n)
		t.negFirst, t.negRest = append(t.negFirst, n0), append(t.negRest, nRest...)
	}
}

// projections returns the projection table of the current version,
// building it on first demand. Safe for concurrent callers: the first
// one builds under the lock, the rest wait for it or see the stamp.
func (st *State) projections() *projTable {
	t := &st.lat.proj
	stamp := int64(st.version) + 1
	if t.built.Load() != stamp {
		t.mu.Lock()
		if t.built.Load() != stamp {
			t.build(&st.lat, &st.cls, st.infClasses)
			t.built.Store(stamp)
		}
		t.mu.Unlock()
	}
	return t
}

// checkProjections recomputes a table built for the current version
// from the definitional meets: each distinct projection once, with its
// summed unlabeled count, and the antichain flattened.
func (st *State) checkProjections() error {
	t := &st.lat.proj
	if t.built.Load() != int64(st.version)+1 {
		return nil // nothing cached for this version
	}
	want := map[string]int{}
	for _, c := range st.infClasses {
		want[fmt.Sprint(st.mp.Meet(st.ClassSig(int(c))).PairSet())] += st.GroupUnlabeled(int(c))
	}
	for d, h0 := range t.first {
		key := fmt.Sprint(append(partition.PairSet{h0}, t.restOf(d)...)[:len(st.lat.mp)])
		if want[key] != int(t.weight[d]) {
			return fmt.Errorf("core: projection %s carries weight %d, want %d", key, t.weight[d], want[key])
		}
		delete(want, key)
	}
	var negFirst, negRest []uint64
	for _, n := range st.Negatives() {
		n0, nRest := split(n.PairSet())
		negFirst, negRest = append(negFirst, n0), append(negRest, nRest...)
	}
	if len(want) > 0 || !slices.Equal(negFirst, t.negFirst) || !slices.Equal(negRest, t.negRest) {
		return fmt.Errorf("core: projection table lacks %v or drifted from the antichain", want)
	}
	return nil
}

// impliedClass classifies class c under the current hypothesis.
func (st *State) impliedClass(c int) Label { return st.lat.implied(st.cls.sig(c)) }

// implied classifies a signature with pair set s under the current
// hypothesis using only word operations: implied positive iff
// M_P ≤ sig, implied negative iff (M_P ∧ sig) ≤ some maximal negative.
func (lat *lattice) implied(s partition.PairSet) Label {
	if lat.mp.SubsetOf(s) {
		return ImpliedPositive
	}
	for _, neg := range lat.negs {
		if partition.IntersectSubset(lat.mp, s, neg) {
			return ImpliedNegative
		}
	}
	return Unlabeled
}
