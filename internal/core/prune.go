package core

import (
	"fmt"

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
	return st.projections().prunes(sig.PairSet(), st.lat.mp)
}

// SimulatePrunesGroup is SimulatePrunes for the signature class at
// position gi. It is the strategies' inner loop: one pass
// over the distinct M_P-projections of the informative classes (see
// projTable), a few word operations per entry, safe to call from
// parallel scorers.
func (st *State) SimulatePrunesGroup(gi int) (pos, neg int) {
	return st.projections().prunes(st.cls.sig(gi), st.lat.mp)
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
// the informative classes at the current version — the entries every
// SimulatePrunesGroup call walks, so a full rescore costs about
// InformativeGroupCount()·ProjectionCount() entry tests. It builds the
// projection table if the version has none yet.
func (st *State) ProjectionCount() int { return len(st.projections().first) }

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

// isZero is 1 if x == 0 and 0 otherwise, without a branch: x-1 sets
// the top bit that x lacks only when x is zero.
func isZero(x uint64) uint64 { return ((x - 1) &^ x) >> 63 }

// prunes is the fused prune-count kernel: both answers for a class with
// pair set g in one pass over the projection table. For an entry with
// projection H (see projTable), writing G = M_P ∧ g:
//
//	negative: settles iff H ≤ g                  — h &^ g is empty
//	positive: settles iff G ≤ H                  — G &^ h is empty
//	          or g ∧ H ≤ some maximal negative n — g & h &^ n is empty
//
// Every test is a mask from isZero, and an entry's weight is added as
// w & -mask, so the loop carries no data-dependent branch. The word
// count (one up to 11 attributes) and the antichain size (0, 1 or
// more) are fixed per table, so the choice between the specialized
// loops is made once, outside them.
func (t *projTable) prunes(g, mp partition.PairSet) (pos, neg int) {
	if t.tail != 0 {
		return t.prunesWide(g, mp)
	}
	g0, _ := split(g)
	mp0, _ := split(mp)
	a0, notG := mp0&g0, ^g0
	first := t.first
	weight := t.weight[:len(first)]
	switch negs := t.negFirst; len(negs) {
	case 0:
		for d, h := range first {
			w := int(weight[d])
			pos += w & -int(isZero(a0&^h))
			neg += w & -int(isZero(h&notG))
		}
	case 1:
		c := g0 &^ negs[0]
		for d, h := range first {
			w := int(weight[d])
			pos += w & -int(isZero(a0&^h)|isZero(h&c))
			neg += w & -int(isZero(h&notG))
		}
	default:
		for d, h := range first {
			m, gh := isZero(a0&^h), g0&h
			for _, n := range negs {
				m |= isZero(gh &^ n)
			}
			w := int(weight[d])
			pos += w & -int(m)
			neg += w & -int(isZero(h&notG))
		}
	}
	return pos, neg
}

// prunesWide is prunes for pair sets of more than one word: each test
// ORs its words' residues before one isZero, so the rest words are
// read unconditionally instead of behind a first-word branch.
func (t *projTable) prunesWide(g, mp partition.PairSet) (pos, neg int) {
	tail := t.tail
	g0, gRest := split(g)
	mp0, mpRest := split(mp)
	gRest, mpRest = gRest[:tail], mpRest[:tail]
	a0 := mp0 & g0
	weight := t.weight[:len(t.first)]
	for d, h := range t.first {
		r := t.rest[d*tail : (d+1)*tail]
		vp, vn := a0&^h, h&^g0
		for w, x := range r {
			vp |= mpRest[w] & gRest[w] &^ x
			vn |= x &^ gRest[w]
		}
		m := isZero(vp)
		for k, n := range t.negFirst {
			v := g0 & h &^ n
			for w, x := range t.negRestOf(k) {
				v |= gRest[w] & r[w] &^ x
			}
			m |= isZero(v)
		}
		w := int(weight[d])
		pos += w & -int(m)
		neg += w & -int(isZero(vn))
	}
	return pos, neg
}
