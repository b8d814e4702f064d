package core

import (
	"repro/internal/partition"
	"repro/internal/relation"
)

// SigOf computes Eq(t): the partition induced on attribute positions by
// value equality inside the tuple.
func SigOf(t relation.Tuple) partition.P {
	return partition.FromEqual(len(t), func(a, b int) bool { return t[a].Equal(t[b]) })
}

// Selects reports whether the join predicate q selects tuple t, i.e.
// q ≤ Eq(t).
func Selects(q partition.P, t relation.Tuple) bool {
	return q.LessEq(SigOf(t))
}

// SelectTuples returns the indices of the tuples of rel selected by q —
// the join result of the inferred predicate over the instance.
func SelectTuples(rel *relation.Relation, q partition.P) []int {
	var out []int
	rel.Each(func(i int, t relation.Tuple) {
		if Selects(q, t) {
			out = append(out, i)
		}
	})
	return out
}

// InstanceEquivalent reports whether two predicates select exactly the
// same tuples of rel — the paper's notion of equivalence up to which
// the goal query is identified.
func InstanceEquivalent(rel *relation.Relation, a, b partition.P) bool {
	var t relation.Tuple
	for i := 0; i < rel.Len(); i++ {
		t = rel.AppendTuple(t[:0], i)
		sig := SigOf(t)
		if a.LessEq(sig) != b.LessEq(sig) {
			return false
		}
	}
	return true
}
