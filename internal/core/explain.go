package core

import (
	"fmt"

	"repro/internal/partition"
)

// ExplanationKind classifies why a tuple carries its label.
type ExplanationKind int8

// Explanation kinds.
const (
	ExplainUnlabeled       ExplanationKind = iota // still informative
	ExplainExplicit                               // the user said so
	ExplainImpliedPositive                        // M_P ≤ Eq(t)
	ExplainImpliedNegative                        // M_P ⋀ Eq(t) ≤ Eq(s) for a negative s
)

// Explanation justifies a tuple's current label in terms of the
// inference invariants — the demo's "why is this grayed out?" answer.
type Explanation struct {
	Index int
	Label Label
	Kind  ExplanationKind
	// Witness is the negative signature that blocks the tuple
	// (implied-negative explanations only).
	Witness partition.P
	// WitnessIndex is a tuple carrying Witness as an explicit negative
	// label, or -1 when the witness arose from a dominated negative.
	WitnessIndex int
}

// Explain justifies the current label of tuple i.
func (st *State) Explain(i int) (Explanation, error) {
	if i < 0 || i >= len(st.labels) {
		return Explanation{}, fmt.Errorf("%w: %d not in [0,%d)", ErrOutOfRange, i, len(st.labels))
	}
	e := Explanation{Index: i, Label: st.labels[i], WitnessIndex: -1}
	switch st.labels[i] {
	case Unlabeled:
		e.Kind = ExplainUnlabeled
	case Positive, Negative:
		e.Kind = ExplainExplicit
	case ImpliedPositive:
		e.Kind = ExplainImpliedPositive
	case ImpliedNegative:
		e.Kind = ExplainImpliedNegative
		sig := st.cls.sig(int(st.classOf[i]))
		for k, neg := range st.lat.negs {
			if partition.IntersectSubset(st.lat.mp, sig, neg) {
				e.Witness = st.ClassSig(int(st.negs[k]))
				e.WitnessIndex = st.explicitNegativeIn(int(st.negs[k]))
				break
			}
		}
	}
	return e, nil
}

// explicitNegativeIn finds a tuple of class c explicitly labeled
// negative, or -1.
func (st *State) explicitNegativeIn(c int) int {
	for _, i := range st.cls.members(c) {
		if st.labels[i] == Negative {
			return int(i)
		}
	}
	return -1
}

// Format renders the explanation with attribute names, e.g.
//
//	tuple (4) is grayed out positive: every consistent query selects
//	it because M_P = {To=City ∧ Airline=Discount} ≤ Eq(t).
func (e Explanation) Format(st *State) string {
	names := st.Relation().Schema().Names()
	switch e.Kind {
	case ExplainUnlabeled:
		return fmt.Sprintf("tuple %d is informative: consistent queries disagree about it", e.Index)
	case ExplainExplicit:
		return fmt.Sprintf("tuple %d was labeled %v by the user", e.Index, e.Label)
	case ExplainImpliedPositive:
		return fmt.Sprintf(
			"tuple %d is implied positive: the current hypothesis M_P = %s holds in it, so every consistent query selects it",
			e.Index, st.MP().FormatAtoms(names))
	case ExplainImpliedNegative:
		witness := e.Witness.FormatAtoms(names)
		if e.WitnessIndex >= 0 {
			return fmt.Sprintf(
				"tuple %d is implied negative: any consistent query selecting it would also select tuple %d (negative, Eq = %s)",
				e.Index, e.WitnessIndex, witness)
		}
		return fmt.Sprintf(
			"tuple %d is implied negative: any consistent query selecting it would also select a known negative (Eq = %s)",
			e.Index, witness)
	}
	return fmt.Sprintf("tuple %d: unknown explanation", e.Index)
}
