package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
)

// SynthConfig parameterizes the synthetic instance generator used by
// the strategy-comparison and scalability experiments (E6, E7). The
// generator plants a goal join predicate and controls how diverse the
// Eq signatures of the tuples are — the knob that separates "simple"
// from "complex" instances in the paper's sense.
type SynthConfig struct {
	// Attrs is the number of attributes (n).
	Attrs int
	// Tuples is the number of tuples generated.
	Tuples int
	// Goal is the planted goal predicate. If its size does not match
	// Attrs (e.g. the zero partition), a random goal with GoalAtoms
	// equality atoms is drawn.
	Goal partition.P
	// GoalAtoms is the number of equality atoms of a randomly drawn
	// goal (ignored when Goal is set). More atoms = more complex query.
	GoalAtoms int
	// PosRate is the fraction of tuples whose signature is forced to
	// satisfy the goal (default 0.3 when zero).
	PosRate float64
	// ExtraMerges is the expected number of extra random block merges
	// applied to each tuple's signature beyond the forced structure;
	// it controls signature diversity (default 1.0 when zero).
	ExtraMerges float64
	// Seed drives all randomness.
	Seed int64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.PosRate == 0 {
		c.PosRate = 0.3
	}
	if c.ExtraMerges == 0 {
		c.ExtraMerges = 1.0
	}
	if c.GoalAtoms == 0 {
		c.GoalAtoms = 2
	}
	return c
}

// Synthetic generates an instance and returns it with the planted goal
// predicate. Values are chosen so each tuple's Eq signature is exactly
// the partition constructed for it: blocks receive pairwise-distinct
// values drawn from disjoint per-tuple pools.
func Synthetic(cfg SynthConfig) (*relation.Relation, partition.P, error) {
	cfg = cfg.withDefaults()
	if cfg.Attrs < 2 {
		return nil, partition.P{}, fmt.Errorf("workload: synthetic instance needs >= 2 attributes, got %d", cfg.Attrs)
	}
	if cfg.Tuples < 1 {
		return nil, partition.P{}, fmt.Errorf("workload: synthetic instance needs >= 1 tuple, got %d", cfg.Tuples)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	goal := cfg.Goal
	if goal.N() != cfg.Attrs {
		goal = partition.RandomGoal(rng, cfg.Attrs, cfg.GoalAtoms)
	}

	names := AttrNames(cfg.Attrs)
	rel := relation.New(relation.MustSchema(names...))
	for ti := 0; ti < cfg.Tuples; ti++ {
		var sig partition.P
		if rng.Float64() < cfg.PosRate {
			sig = coarsen(rng, goal, cfg.ExtraMerges)
		} else {
			sig = coarsen(rng, partition.Bottom(cfg.Attrs), cfg.ExtraMerges)
		}
		// Distinct per-tuple value bases keep the data varied without
		// touching within-tuple equality, which is all Eq(t) sees.
		base := rng.Int63n(1<<40) << 10
		t := make(relation.Tuple, sig.N())
		for i := 0; i < sig.N(); i++ {
			t[i] = values.Int(base + int64(sig.BlockOf(i)))
		}
		rel.MustAppend(t)
	}
	return rel, goal, nil
}

// AttrNames returns the canonical attribute names a0..a<n-1>.
func AttrNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	return names
}

// coarsen applies a geometric number of random block merges (mean
// approximately extra) on top of base. The merges relabel a copy of
// base's labels in place; partition.New canonicalizes the result.
func coarsen(rng *rand.Rand, base partition.P, extra float64) partition.P {
	n := base.N()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = base.BlockOf(i)
	}
	blocks := base.BlockCount()
	// Geometric stopping with success probability 1/(1+extra) gives
	// mean `extra` merges.
	stop := 1 / (1 + extra)
	for blocks > 1 && rng.Float64() >= stop {
		i, j := rng.Intn(n), rng.Intn(n)
		from, to := labels[j], labels[i]
		if from == to {
			continue
		}
		for k, l := range labels {
			if l == from {
				labels[k] = to
			}
		}
		blocks--
	}
	return partition.New(labels)
}

// TupleWithSig builds a tuple whose Eq signature is exactly sig: block
// k of sig gets the integer value k, so attributes in one block share a
// value and attributes in distinct blocks differ.
func TupleWithSig(sig partition.P) relation.Tuple {
	t := make(relation.Tuple, sig.N())
	for i := 0; i < sig.N(); i++ {
		t[i] = values.Int(int64(sig.BlockOf(i)))
	}
	return t
}
