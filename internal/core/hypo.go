package core

import (
	"fmt"

	"repro/internal/partition"
)

// Hypo is an immutable hypothesis summary — the meet of the positives
// and the maximal antichain of negative signatures — detached from any
// State. It is the working currency of lookahead strategies (simulate
// a label, measure the pruning) and of the exact optimal strategy.
type Hypo struct {
	MP   partition.P
	Negs []partition.P
}

// Hypo snapshots the state's hypothesis summary. The returned value
// shares no mutable storage with the state.
func (st *State) Hypo() Hypo {
	return Hypo{MP: st.mp, Negs: st.Negatives()}
}

// ImpliedLabel returns the label forced on a signature under h, or
// Unlabeled if the signature is informative under h.
func (h Hypo) ImpliedLabel(sig partition.P) Label {
	if h.MP.N() == sig.N() {
		// Same-size partitions (every real caller): pure pair-bitset
		// word operations, no meet materialized. The bitsets memoize on
		// the partitions themselves, so repeated queries against one
		// hypothesis — the lookahead pattern — cost a few ANDs each.
		mw, sw := h.MP.PairSet(), sig.PairSet()
		if mw.SubsetOf(sw) {
			return ImpliedPositive
		}
		for _, neg := range h.Negs {
			if neg.N() == sig.N() && partition.IntersectSubset(mw, sw, neg.PairSet()) {
				return ImpliedNegative
			}
		}
		return Unlabeled
	}
	// Mismatched sizes keep the definitional path (LessEq false, Meet
	// panics) so misuse fails the same way it always did.
	if h.MP.LessEq(sig) {
		return ImpliedPositive
	}
	m := h.MP.Meet(sig)
	for _, neg := range h.Negs {
		if m.LessEq(neg) {
			return ImpliedNegative
		}
	}
	return Unlabeled
}

// Apply returns the hypothesis after labeling a tuple with the given
// signature. It does not check informativeness; callers simulate only
// labels that are consistent under h (as the engine guarantees). The
// refined meet is returned in cached form: lookahead callers probe it
// once per remaining class, and the memoized bitset makes every probe
// after the first allocation-free.
func (h Hypo) Apply(sig partition.P, l Label) Hypo {
	switch l.Explicit() {
	case Positive:
		return Hypo{MP: h.MP.Meet(sig).Cached(), Negs: h.Negs}
	case Negative:
		for _, neg := range h.Negs {
			if sig.LessEq(neg) {
				return h
			}
		}
		negs := make([]partition.P, 0, len(h.Negs)+1)
		for _, neg := range h.Negs {
			if !neg.LessEq(sig) {
				negs = append(negs, neg)
			}
		}
		return Hypo{MP: h.MP, Negs: append(negs, sig)}
	}
	panic(fmt.Sprintf("core: Hypo.Apply with non-polar label %v", l))
}

// GroupCount pairs a signature with its number of unlabeled tuples.
type GroupCount struct {
	Sig   partition.P
	Count int
}

// GroupCounts returns the signature classes that still hold unlabeled
// tuples, with their unlabeled-tuple counts — the input to lookahead
// prune counting.
func (st *State) GroupCounts() []GroupCount {
	out := make([]GroupCount, 0, len(st.infClasses))
	for _, c := range st.infClasses {
		out = append(out, GroupCount{Sig: st.ClassSig(int(c)), Count: st.GroupUnlabeled(int(c))})
	}
	return out
}

// PruneCount returns how many of the given unlabeled tuples stop being
// informative when a tuple with signature sig receives label l under
// hypothesis h — including sig's own class.
func (h Hypo) PruneCount(groups []GroupCount, sig partition.P, l Label) int {
	next := h.Apply(sig, l)
	count := 0
	for _, g := range groups {
		if next.ImpliedLabel(g.Sig) != Unlabeled {
			count += g.Count
		}
	}
	return count
}

// Informative filters the group list down to the classes still
// informative under h.
func (h Hypo) Informative(groups []GroupCount) []GroupCount {
	var out []GroupCount
	for _, g := range groups {
		if h.ImpliedLabel(g.Sig) == Unlabeled {
			out = append(out, g)
		}
	}
	return out
}
