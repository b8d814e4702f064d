package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/partition"
	"repro/internal/relation"
)

// InstanceConfig sizes a named benchmark instance.
type InstanceConfig struct {
	// Tuples is the instance size; 0 picks the workload's traditional
	// default (the sizes perfbench's chat-http workload uses).
	Tuples int
	// Seed drives generation and, where the workload has no planted
	// goal, the goal draw.
	Seed int64
}

// InstanceNames lists the workloads Instance accepts.
func InstanceNames() []string { return []string{"travel", "synthetic", "zipf", "star"} }

// Instance builds a named benchmark instance together with an
// inference goal for the oracle to answer by — the one entry point the
// service benchmark and the core benchmarks share, so every caller
// sizes and seeds workloads the same way.
//
//   - travel: the paper's running example (goal Q2); Tuples beyond its
//     natural size are reached by duplicating rows, which preserves the
//     signature classes while scaling multiplicities.
//   - synthetic: planted-goal generator with controlled signature
//     diversity.
//   - zipf: skewed shared-vocabulary values, equalities arise
//     organically; the goal is a random predicate (inference converges
//     whether or not it is realizable).
//   - star: denormalized star schema; the goal is the foreign-key join.
func Instance(name string, cfg InstanceConfig) (*relation.Relation, partition.P, error) {
	switch name {
	case "travel":
		rel, goal := Travel(), TravelQ2()
		if cfg.Tuples > rel.Len() {
			bigger, err := WithDuplicates(rel, cfg.Tuples, cfg.Seed)
			if err != nil {
				return nil, partition.P{}, err
			}
			rel = bigger
		}
		return rel, goal, nil
	case "synthetic":
		tuples := cfg.Tuples
		if tuples == 0 {
			tuples = 60
		}
		return Synthetic(SynthConfig{
			Attrs: 6, Tuples: tuples, GoalAtoms: 2, ExtraMerges: 1.5, Seed: cfg.Seed,
		})
	case "zipf":
		tuples := cfg.Tuples
		if tuples == 0 {
			tuples = 40
		}
		rel, err := Zipf(ZipfConfig{
			Attrs: 5, Tuples: tuples, Vocab: 8, S: 1.5, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, partition.P{}, err
		}
		goal := partition.RandomGoal(rand.New(rand.NewSource(cfg.Seed)), 5, 2)
		return rel, goal, nil
	case "star":
		tuples := cfg.Tuples
		if tuples == 0 {
			tuples = 200
		}
		star, err := NewStar(StarConfig{
			Dims: 3, DimRows: 12, DimAttrs: 2, FactAttrs: 2, Rows: tuples, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, partition.P{}, err
		}
		return star.Instance, star.Goal, nil
	}
	return nil, partition.P{}, fmt.Errorf("workload: unknown instance %q (want one of %v)", name, InstanceNames())
}
