// Package quality measures how close an inferred join predicate comes
// to the goal on a given instance. Exact instance-equivalence is the
// convergence criterion of truthful sessions; noisy crowd sessions
// (package crowd) need the graded view: precision, recall, and F1 of
// the inferred join result against the goal's.
package quality

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Report grades an inferred predicate against a goal on one instance.
type Report struct {
	// TruePositives counts tuples selected by both predicates.
	TruePositives int
	// FalsePositives counts tuples only the inferred predicate selects.
	FalsePositives int
	// FalseNegatives counts tuples only the goal selects.
	FalseNegatives int
	// TrueNegatives counts tuples neither selects.
	TrueNegatives int
}

// Evaluate compares the join results of inferred and goal over rel.
func Evaluate(rel *relation.Relation, inferred, goal partition.P) Report {
	var rep Report
	rel.Each(func(_ int, t relation.Tuple) {
		sig := core.SigOf(t)
		inf := inferred.LessEq(sig)
		g := goal.LessEq(sig)
		switch {
		case inf && g:
			rep.TruePositives++
		case inf && !g:
			rep.FalsePositives++
		case !inf && g:
			rep.FalseNegatives++
		default:
			rep.TrueNegatives++
		}
	})
	return rep
}

// Precision returns TP/(TP+FP); 1 when the inferred result is empty.
func (r Report) Precision() float64 {
	den := r.TruePositives + r.FalsePositives
	if den == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(den)
}

// Recall returns TP/(TP+FN); 1 when the goal's result is empty.
func (r Report) Recall() float64 {
	den := r.TruePositives + r.FalseNegatives
	if den == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(den)
}

// F1 returns the harmonic mean of precision and recall (0 when both
// are 0).
func (r Report) F1() float64 {
	p, rec := r.Precision(), r.Recall()
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// Accuracy returns the fraction of tuples on which the predicates
// agree (1 for an empty instance).
func (r Report) Accuracy() float64 {
	total := r.TruePositives + r.FalsePositives + r.FalseNegatives + r.TrueNegatives
	if total == 0 {
		return 1
	}
	return float64(r.TruePositives+r.TrueNegatives) / float64(total)
}

// Exact reports instance-equivalence (no disagreement at all).
func (r Report) Exact() bool {
	return r.FalsePositives == 0 && r.FalseNegatives == 0
}

// String renders the headline numbers.
func (r Report) String() string {
	return fmt.Sprintf("precision %.3f, recall %.3f, F1 %.3f, accuracy %.3f",
		r.Precision(), r.Recall(), r.F1(), r.Accuracy())
}
