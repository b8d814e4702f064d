package core

import (
	"fmt"

	"repro/internal/partition"
)

// This file is the depth-two counterpart of SimulatePrunes: the inner
// loop of the lookahead-2 strategy, run entirely on the state's cached
// pair bitsets. The previous implementation built a detached Hypo per
// (candidate, answer) pair — a materialized meet, a copied negative
// antichain, and a fresh GroupCount slice per refresh — which made
// lookahead-2 the one strategy whose steady-state pick allocated per
// class. Here the hypothetical hypothesis after the first answer is
// never constructed: it is represented by one scratch pair set (the
// refined meet) plus, for a negative first answer, the candidate's own
// bitset standing in as the extra antichain element.

// TwoStepScratch holds the reusable working sets of TwoStepWorst: the
// materialized first- and second-step meets and the list of classes
// still informative after the first answer. A zero value is ready to
// use; buffers grow to the instance's class count and are reused
// across calls, so steady-state two-step scoring allocates nothing.
// A scratch value must not be shared between concurrent calls.
type TwoStepScratch struct {
	mp1       partition.PairSet
	mp2       partition.PairSet
	remaining []int32
}

// TwoStepWorst returns the guaranteed two-step pruning of asking about
// the signature class at position gi:
//
//	min over answer l of [ prune(g,l) + max_g' min_l' prune'(g',l') ]
//
// — the immediate pruning of the worst answer plus the best guaranteed
// pruning of one further question under the refined hypothesis. It
// matches the definitional path (Hypo.Apply + PruneCount over
// GroupCounts) exactly; the differential tests hold the two together.
// The state is not modified.
func (st *State) TwoStepWorst(gi int, sc *TwoStepScratch) int {
	if gi < 0 || gi >= st.cls.len() {
		panic(fmt.Sprintf("core: TwoStepWorst class %d not in [0,%d)", gi, st.cls.len()))
	}
	pos, neg := st.SimulatePrunesGroup(gi)
	return min(pos+st.bestSecondStep(gi, Positive, sc), neg+st.bestSecondStep(gi, Negative, sc))
}

// bestSecondStep returns max_g' min_l' prune'(g',l') under the
// hypothesis refined by labeling class gi with l — the best guaranteed
// pruning of a single further question.
//
// The refined hypothesis is held in bitset form: a positive first
// answer moves the meet to mp1 = M_P ∧ g (materialized once into the
// scratch); a negative one leaves the meet alone and logically adds g
// to the antichain (extraNeg). Dominated antichain elements are not
// filtered — the implied-negative test is an existential over the set,
// and any class below a dominated element is below its dominator too,
// so the extra member changes no answer.
func (st *State) bestSecondStep(gi int, l Label, sc *TwoStepScratch) int {
	g := st.cls.sig(gi)
	var mp1, extraNeg partition.PairSet
	if l == Positive {
		sc.mp1 = partition.IntersectInto(sc.mp1, st.lat.mp, g)
		mp1 = sc.mp1
	} else {
		mp1 = st.lat.mp
		extraNeg = g
	}

	// Classes still informative after the first answer. Candidates for
	// the second question and the population it can prune are the same
	// list (asking about a settled class is never useful).
	sc.remaining = sc.remaining[:0]
	for _, hi := range st.infClasses {
		h := st.cls.sig(int(hi))
		if mp1.SubsetOf(h) {
			continue // implied positive under the refined meet
		}
		implied := false
		for _, neg := range st.lat.negs {
			if partition.IntersectSubset(mp1, h, neg) {
				implied = true
				break
			}
		}
		if !implied && extraNeg != nil && partition.IntersectSubset(mp1, h, extraNeg) {
			implied = true
		}
		if !implied {
			sc.remaining = append(sc.remaining, hi)
		}
	}

	best := 0
	for _, g2i := range sc.remaining {
		g2 := st.cls.sig(int(g2i))
		// Negative second answer: the meet stands, g2 joins the
		// antichain, so a remaining class h settles iff (mp1 ∧ h) ≤ g2.
		cntN := 0
		for _, hi := range sc.remaining {
			if partition.IntersectSubset(mp1, st.cls.sig(int(hi)), g2) {
				cntN += int(st.cls.unlabeled[hi])
			}
		}
		if cntN <= best {
			continue // min(cntP, cntN) ≤ cntN: cannot beat best
		}
		// Positive second answer: the meet refines to mp2 = mp1 ∧ g2.
		sc.mp2 = partition.IntersectInto(sc.mp2, mp1, g2)
		cntP := 0
		for _, hi := range sc.remaining {
			h := st.cls.sig(int(hi))
			pruned := sc.mp2.SubsetOf(h)
			if !pruned {
				for _, neg := range st.lat.negs {
					if partition.IntersectSubset(sc.mp2, h, neg) {
						pruned = true
						break
					}
				}
			}
			if !pruned && extraNeg != nil && partition.IntersectSubset(sc.mp2, h, extraNeg) {
				pruned = true
			}
			if pruned {
				cntP += int(st.cls.unlabeled[hi])
			}
		}
		if m := min(cntP, cntN); m > best {
			best = m
		}
	}
	return best
}
