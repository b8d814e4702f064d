package core

import (
	"fmt"
	"math/bits"

	"repro/internal/partition"
)

// SimulatePrunes returns how many currently-unlabeled tuples would stop
// being informative if a tuple with the given signature were labeled
// positive, respectively negative — including the labeled tuple itself
// and its signature class. This is the quantity-of-information measure
// behind the lookahead strategies. The state is not modified.
func (st *State) SimulatePrunes(sig partition.P) (pos, neg int) {
	if sig.N() != st.n {
		// Foreign-size signature (tests only): fall back to the
		// definitional hypothesis simulation.
		h := st.Hypo()
		return st.countImplied(h.Apply(sig, Positive)), st.countImplied(h.Apply(sig, Negative))
	}
	if gi := st.lookup(sig); gi >= 0 {
		return st.SimulatePrunesGroup(gi)
	}
	return st.projections().prunes(sig.PairSet(), st.lat.mp, st.lat.negs)
}

// SimulatePrunesGroup is SimulatePrunes for the signature class at
// position gi. It is the strategies' inner loop: set algebra over the
// bit-sliced table of the distinct M_P-projections of the informative
// classes (see projTable), a few word operations per column, safe to
// call from concurrent readers.
func (st *State) SimulatePrunesGroup(gi int) (pos, neg int) {
	return st.projections().prunes(st.cls.sig(gi), st.lat.mp, st.lat.negs)
}

// SimulatePrune is the count of SimulatePrunes for one explicit label.
func (st *State) SimulatePrune(sig partition.P, l Label) int {
	pos, neg := st.SimulatePrunes(sig)
	return pruneFor(l, pos, neg)
}

// SimulatePruneGroup is the count of SimulatePrunesGroup for one
// explicit label.
func (st *State) SimulatePruneGroup(gi int, l Label) int {
	pos, neg := st.SimulatePrunesGroup(gi)
	return pruneFor(l, pos, neg)
}

// ProjectionCount returns the number of distinct M_P-projections of
// the informative classes at the current version: the entries of the
// projection table. It builds the table if the version has none yet.
func (st *State) ProjectionCount() int { return st.projections().d }

func pruneFor(l Label, pos, neg int) int {
	switch l {
	case Positive:
		return pos
	case Negative:
		return neg
	}
	panic(fmt.Sprintf("core: simulated prune with non-explicit label %v", l))
}

// countImplied counts the unlabeled tuples of the informative classes
// that hypothesis next settles.
func (st *State) countImplied(next Hypo) int {
	count := 0
	for _, c := range st.infClasses {
		if next.ImpliedLabel(st.ClassSig(int(c))) != Unlabeled {
			count += st.GroupUnlabeled(int(c))
		}
	}
	return count
}

// prunes is the bit-sliced prune-count kernel: both answers for a class
// with pair set g, as set algebra over the table's columns (see
// projTable). Writing G = M_P ∧ g, an entry with projection H settles
//
//	negative: iff H ≤ g     — it is in no column of M_P ∖ g
//	positive: iff G ≤ H     — it is in every column of G
//	          or g ∧ H ≤ n  — it is in no column of G ∖ n, for some maximal negative n
//
// The table is walked a row of 64 entries at a time, and a call's
// scratch is one word per set for the current row: the row's columns
// of M_P ∖ g are ORed into out, those of G ANDed into in, those of
// each G ∖ n ORed and complemented into in; cut to the row's entries,
// the two settled sets' weights are base·|set| plus a popcount per
// plane. Only the mixed pairs' columns are read: a pair every entry
// holds, or none does, has the same word in every row and is folded
// in once per call. Nothing branches on an entry, and the one loop
// serves every pair-set width, table size and antichain size. The
// table is read-only here, so concurrent readers share it.
func (t *projTable) prunes(g, mp partition.PairSet, negs []partition.PairSet) (pos, neg int) {
	g = g[:len(mp)]
	common, mixed := t.pairs[:len(mp)], t.pairs[len(mp):2*len(mp)]
	// The pairs every entry holds, or none does, have the same column
	// word in every row: a common pair outside g puts every entry in
	// out, a pair of G that no entry holds leaves none in in.
	var full, empty uint64
	for w, m := range mp {
		full |= common[w] &^ g[w]
		empty |= m & g[w] &^ (common[w] | mixed[w])
	}
	full, empty = -nonZero(full), -nonZero(empty)
	for i := range t.rows {
		row := &t.rows[i]
		r := t.sets[row.at : int(row.at)+t.cols+int(row.planes)]
		out := full  // entries in some column of M_P ∖ g
		in := ^empty // entries in every column of G, or in no column of some G ∖ n
		for w, m := range mixed {
			for x := m &^ g[w]; x != 0; x &= x - 1 {
				out |= r[w<<6|bits.TrailingZeros64(x)]
			}
			for x := m & g[w]; x != 0; x &= x - 1 {
				in &= r[w<<6|bits.TrailingZeros64(x)]
			}
		}
		for _, n := range negs {
			n = n[:len(mp)]
			var cut uint64 // entries in some column of G ∖ n
			for w, m := range mixed {
				cut |= -nonZero(common[w] & g[w] &^ n[w])
				for x := m & g[w] &^ n[w]; x != 0; x &= x - 1 {
					cut |= r[w<<6|bits.TrailingZeros64(x)]
				}
			}
			in |= ^cut
		}
		p, n := row.weigh(r[t.cols:], in&row.valid, row.valid&^out)
		pos, neg = pos+p, neg+n
	}
	return pos, neg
}

// nonZero is 1 if x != 0 and 0 otherwise, without a branch.
func nonZero(x uint64) uint64 { return (x | -x) >> 63 }

// weigh sums the weights of the row's entries in two sets, given the
// row's planes.
func (row *projRow) weigh(planes []uint64, a, b uint64) (wa, wb int) {
	wa, wb = int(row.base)*bits.OnesCount64(a), int(row.base)*bits.OnesCount64(b)
	for p, v := range planes {
		wa += bits.OnesCount64(v&a) << (p & 63)
		wb += bits.OnesCount64(v&b) << (p & 63)
	}
	return wa, wb
}
