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
// summed unlabeled counts, and the prune-count kernel (prunes) counts
// over the D distinct projections, not every informative class. D
// collapses once M_P moves.
//
// Layout: bit-sliced, after bit-sliced indexes and BitWeaving. The
// table keeps no pair set per entry. It cuts the entries into rows of
// 64, and a row holds one word per pair of the attribute count (a
// column word: bit k set iff the row's k-th entry's projection holds
// that pair; P = n(n-1)/2 of them, whether or not M_P holds the pair)
// and then its weight planes (bit k of plane p set iff bit p of the
// k-th entry's weight above the row's base is). A pair's column words
// across the rows are the D-bit set of the entries holding it, so the
// kernel's tests become ORs and ANDs of column words, and a weighted
// count over a set of entries is one popcount per plane word. The
// entries are ordered by weight length, longest first, and each row
// counts weights from its least one (projRow.base): the few heavy
// entries share the first row, the later rows carry a plane or two,
// and a row of equal weights none.
//
// A pair that every entry holds, or that none does, has the same
// column word in every row, so the table also keeps which pairs of M_P
// are common to all entries and which are mixed; only the columns of
// the mixed pairs are filled in and read, the others stay zero. Late in a dialogue most pairs
// are constant: two of the 105 pairs of a 15-attribute table of four
// entries vary.
//
// The first simulation after an Apply or Append builds the table (never
// NewState or Append: they must not pay for scoring that may not
// follow), under mu since parallel scorers race to it, and publishes it
// by storing the version stamp. Buffers are reused across rebuilds.
type projTable struct {
	mu    sync.Mutex
	built atomic.Int64 // State.Version+1 the table holds; 0 = never built

	d     int       // entries: distinct projections
	cols  int       // columns per row: the pairs of the attribute count
	reads int       // words a prunes call reads: the mixed columns and the planes
	rows  []projRow // one per 64 entries
	sets  []uint64  // row by row: cols columns, then the row's planes
	// pairs holds two pair sets of len(M_P) words: the pairs every
	// entry holds (common), then those some but not all hold (mixed).
	// Only mixed pairs have a column worth reading.
	pairs []uint64
}

// projRow describes a row of 64 entries of a projTable: every entry's
// weight is base plus the number its planes spell.
type projRow struct {
	valid  uint64 // the row's entries
	at     int32  // offset of the row's columns in sets
	base   int32  // the row's least weight
	planes int32  // bits.Len of the row's largest weight above base
}

// buildScratch holds what a build needs only while it runs: the
// open-addressing index (entry+1, 0 = empty), the projections and
// weights it merges row-wise before transposing them, and the order
// the transposition lays the entries out in. One set of buffers serves
// every session. Not a sync.Pool: collections and GOMAXPROCS changes
// drain those, and a rebuild would then allocate.
var buildScratch struct {
	sync.Mutex
	slots  []int32
	rows   []uint64 // projections, len(M_P) words each
	weight []int32  // unlabeled tuples per projection
	order  []int32  // entries by weight length, longest first
}

// build fills the table from the informative classes inf of cls:
// equal projections merge through the open-addressing index into
// row-wise scratch, which is then transposed into the sets (only the
// mixed pairs' columns are written: no simulation reads the others).
// The sets are sized exactly, so a build grows the buffers at most
// once.
func (t *projTable) build(lat *lattice, cls *classTable, inf []int32) {
	mp := lat.mp
	wp := len(mp)
	lg := bits.Len(uint(max(2*len(inf)-1, 1))) // at most half the slots fill
	size, shift := 1<<lg, 64-lg
	buildScratch.Lock()
	defer buildScratch.Unlock()
	slots := reserve(buildScratch.slots[:0], size)[:size]
	clear(slots)
	rows := reserve(buildScratch.rows[:0], len(inf)*wp)
	weight := reserve(buildScratch.weight[:0], len(inf))
	t.pairs = reserve(t.pairs[:0], 2*wp)[:2*wp]
	common, mixed := t.pairs[:wp], t.pairs[wp:]
	copy(common, mp)
	clear(mixed)
	for _, hi := range inf {
		// Append as a candidate entry; drop it if an equal one is indexed.
		d := len(weight)
		hash := uint64(0)
		for w, x := range cls.sig(int(hi)) {
			x &= mp[w]
			rows = append(rows, x)
			common[w] &= x
			mixed[w] |= x
			hash = (hash ^ x) * 0x9e3779b97f4a7c15
		}
		for s := hash >> shift; ; s = (s + 1) & uint64(size-1) {
			e := int(slots[s]) - 1
			if e < 0 {
				slots[s] = int32(d + 1)
				weight = append(weight, cls.unlabeled[hi])
				break
			}
			if slices.Equal(rows[e*wp:(e+1)*wp], rows[d*wp:]) {
				weight[e] += cls.unlabeled[hi]
				rows = rows[:d*wp]
				break
			}
		}
	}
	for w := range mixed {
		mixed[w] &^= common[w]
	}
	// Order the entries by weight length, longest first: a counting
	// sort over the 32 lengths an int32 weight can have.
	var start [33]int
	for _, we := range weight {
		start[32-bits.Len32(uint32(we))]++
	}
	for l, at := 0, 0; l < len(start); l++ {
		start[l], at = at, at+start[l]
	}
	order := reserve(buildScratch.order[:0], len(weight))[:len(weight)]
	for e, we := range weight {
		l := 32 - bits.Len32(uint32(we))
		order[start[l]] = int32(e)
		start[l]++
	}
	buildScratch.slots, buildScratch.rows, buildScratch.weight, buildScratch.order = slots, rows, weight, order

	t.d, t.cols = len(weight), cls.n*(cls.n-1)/2
	t.rows = reserve(t.rows[:0], (t.d+63)/64)
	n := 0
	for lo := 0; lo < t.d; lo += 64 {
		row := order[lo:min(lo+64, t.d)]
		base, top := weight[row[0]], weight[row[0]]
		for _, e := range row {
			base, top = min(base, weight[e]), max(top, weight[e])
		}
		planes := bits.Len32(uint32(top - base))
		t.rows = append(t.rows, projRow{^uint64(0) >> (64 - len(row)), int32(n), base, int32(planes)})
		n += t.cols + planes
	}
	t.reads = n - len(t.rows)*(t.cols-partition.PairSet(mixed).Count())
	t.sets = reserve(t.sets[:0], n)[:n]
	clear(t.sets)
	for r, e := range order {
		at, bit := int(t.rows[r>>6].at), uint64(1)<<(r&63)
		for w, x := range rows[int(e)*wp : (int(e)+1)*wp] {
			for x &= mixed[w]; x != 0; x &= x - 1 {
				t.sets[at+(w<<6|bits.TrailingZeros64(x))] |= bit
			}
		}
		for x := uint32(weight[e] - t.rows[r>>6].base); x != 0; x &= x - 1 {
			t.sets[at+t.cols+bits.TrailingZeros32(x)] |= bit
		}
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

// entry reads the entry at position r of the table back out of the
// sets: its projection (a pair set of words words: the common pairs
// and the mixed ones its columns hold) and its weight.
func (t *projTable) entry(words, r int) (partition.PairSet, int) {
	row, bit := t.rows[r>>6], uint64(1)<<(r&63)
	at := int(row.at)
	h := slices.Clone(t.pairs[:words])
	for c, v := range t.sets[at : at+t.cols] {
		if v&bit != 0 {
			h[c>>6] |= 1 << (c & 63)
		}
	}
	weight := int(row.base)
	for p, v := range t.sets[at+t.cols : at+t.cols+int(row.planes)] {
		if v&bit != 0 {
			weight += 1 << p
		}
	}
	return h, weight
}

// checkProjections recomputes a table built for the current version
// from the definitional meets: each distinct projection once, with its
// summed unlabeled count, in rows of the documented shape with no bit
// past the last entry and every row's planes enough for its weights.
func (st *State) checkProjections() error {
	t := &st.lat.proj
	if t.built.Load() != int64(st.version)+1 {
		return nil // nothing cached for this version
	}
	n := 0
	for i, row := range t.rows {
		if int(row.at) != n || row.valid != ^uint64(0)>>(64-min(t.d-64*i, 64)) {
			return fmt.Errorf("core: projection table row %d of %d entries is %+v at word %d", i, t.d, row, n)
		}
		n += t.cols + int(row.planes)
	}
	if len(t.rows) != (t.d+63)/64 || len(t.sets) != n {
		return fmt.Errorf("core: projection table of %d entries holds %d words in rows %v", t.d, len(t.sets), t.rows)
	}
	if r := t.d & 63; r != 0 {
		for _, v := range t.sets[n-t.cols-int(t.rows[len(t.rows)-1].planes):] {
			if v>>r != 0 {
				return fmt.Errorf("core: projection table has bits past entry %d", t.d)
			}
		}
	}
	want := map[string]int{}
	for _, c := range st.infClasses {
		want[fmt.Sprint(st.mp.Meet(st.ClassSig(int(c))).PairSet())] += st.GroupUnlabeled(int(c))
	}
	words := len(st.lat.mp)
	common, mixed := slices.Clone(st.lat.mp), make(partition.PairSet, words)
	for r := range t.d {
		h, weight := t.entry(words, r)
		key := fmt.Sprint(h)
		if weight == 0 || want[key] != weight {
			return fmt.Errorf("core: projection %s carries weight %d, want %d", key, weight, want[key])
		}
		delete(want, key)
		for w := range h {
			common[w] &= h[w]
			mixed[w] |= h[w]
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("core: projection table lacks %v", want)
	}
	for w := range mixed {
		mixed[w] &^= common[w]
	}
	if !slices.Equal(t.pairs, append(common, mixed...)) {
		return fmt.Errorf("core: projection table keeps common and mixed pairs %v, want %v and %v", t.pairs, common, mixed)
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
