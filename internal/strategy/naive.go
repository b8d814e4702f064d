package strategy

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/partition"
)

// This file holds the from-scratch reference implementations of every
// heuristic strategy: the pre-refactor scoring path, which rebuilds
// the hypothesis with partition meets, reclassifies every class with
// Meet/LessEq, and recounts unlabeled tuples by scanning labels on
// each evaluation. They exist for two jobs:
//
//   - the differential tests assert that the incremental scorer picks
//     the same tuple sequence as these definitional rescorers on
//     randomized workloads — the safety net under the whole
//     incremental-scoring refactor;
//   - the pick benchmarks (BenchmarkPick10k in the module root) use
//     them as the baseline the incremental path is measured against.
//
// They intentionally keep the old cost profile — O(classes²) partition
// meets plus O(tuples) label scans per pick — so benchmark speedups
// measure the refactor, not a weakened straw man.

// Naive returns the from-scratch reference implementation of the named
// heuristic strategy. It accepts every HeuristicNames entry and
// reports the same Name as the incremental version; only the scoring
// machinery differs. The exponential optimal strategy has no naive
// variant (it is already definitional).
func Naive(name string, seed int64) (core.KPicker, error) {
	switch name {
	case "random":
		return &naiveRanked{name: "random", score: func(st *core.State, sigs []partition.P, c int) float64 {
			return randomScore(seed, st, c)
		}}, nil
	case "local-most-specific":
		return &naiveRanked{name: name, score: func(st *core.State, sigs []partition.P, c int) float64 {
			return float64(st.MP().Meet(sigs[c]).PairCount()) + float64(len(st.ClassMembers(c)))*1e-6
		}}, nil
	case "local-least-specific":
		return &naiveRanked{name: name, score: func(st *core.State, sigs []partition.P, c int) float64 {
			return -float64(st.MP().Meet(sigs[c]).PairCount()) + float64(len(st.ClassMembers(c)))*1e-6
		}}, nil
	case "lookahead-maxmin":
		return &naiveRanked{name: name, score: func(st *core.State, sigs []partition.P, c int) float64 {
			p, n := naivePrune(st, sigs, sigs[c], core.Positive), naivePrune(st, sigs, sigs[c], core.Negative)
			return float64(min(p, n))*1e6 + float64(p+n)
		}}, nil
	case "lookahead-expected":
		return &naiveRanked{name: name, score: func(st *core.State, sigs []partition.P, c int) float64 {
			p, n := naivePrune(st, sigs, sigs[c], core.Positive), naivePrune(st, sigs, sigs[c], core.Negative)
			return float64(p+n) / 2
		}}, nil
	case "lookahead-entropy":
		return &naiveRanked{name: name, score: func(st *core.State, sigs []partition.P, c int) float64 {
			p, n := naivePrune(st, sigs, sigs[c], core.Positive), naivePrune(st, sigs, sigs[c], core.Negative)
			total := p + n
			if total == 0 {
				return 0
			}
			q := float64(p) / float64(total)
			return entropy(q) * float64(total)
		}}, nil
	case "lookahead-2":
		c := &naiveL2{}
		return &naiveRanked{name: name, score: c.score}, nil
	}
	return nil, fmt.Errorf("strategy: no naive reference for %q (want one of %v)", name, HeuristicNames())
}

// MustNaive is Naive that panics on unknown names; for benchmarks and
// statically-known strategy literals.
func MustNaive(name string, seed int64) core.KPicker {
	s, err := Naive(name, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// RebuildFromScratch is the from-scratch equivalent of streaming
// ingestion (core.State.Append): a fresh NewState over a deep copy of
// the full current instance with every explicit label replayed — what
// a non-incremental stack would do on each arrival batch. The
// streaming differential tests and the append benchmarks use it as the
// definitional baseline the incremental registration path must match
// pick for pick (and beat on cost).
func RebuildFromScratch(st *core.State) (*core.State, error) {
	rebuilt, err := core.NewState(st.Relation().Clone())
	if err != nil {
		return nil, err
	}
	for i := 0; i < st.Relation().Len(); i++ {
		if l := st.Label(i); l.IsExplicit() {
			if _, err := rebuilt.Apply(i, l); err != nil {
				return nil, fmt.Errorf("strategy: replaying label %d (%v): %w", i, l, err)
			}
		}
	}
	return rebuilt, nil
}

// naiveRanked is the pre-refactor ranked scaffolding: fresh candidate
// list and fresh scores on every call, selection by repeated scan.
// Each call builds the partitions of every class once, and score
// reads them from sigs, indexed by class position.
type naiveRanked struct {
	name  string
	score func(st *core.State, sigs []partition.P, c int) float64
}

func (s *naiveRanked) Name() string { return s.name }

func (s *naiveRanked) Pick(st *core.State) (int, bool) {
	classes := st.InformativeClasses()
	if len(classes) == 0 {
		return 0, false
	}
	sigs := classSigs(st)
	best := -1
	bestScore := math.Inf(-1)
	for _, c := range classes {
		if sc := s.score(st, sigs, int(c)); sc > bestScore {
			best, bestScore = int(c), sc
		}
	}
	return firstUnlabeled(st, best), true
}

// classSigs returns the signature of every class, by position.
func classSigs(st *core.State) []partition.P {
	sigs := make([]partition.P, st.ClassCount())
	for c := range sigs {
		sigs[c] = st.ClassSig(c)
	}
	return sigs
}

// PickK is the old O(k·C) stable selection sort, kept as the ordering
// oracle for the heap-based partial sort.
func (s *naiveRanked) PickK(st *core.State, k int) []int {
	classes := st.InformativeClasses()
	if len(classes) == 0 {
		return nil
	}
	sigs := classSigs(st)
	scores := make([]float64, len(classes))
	for i, c := range classes {
		scores[i] = s.score(st, sigs, int(c))
	}
	out := make([]int, 0, min(max(k, 0), len(classes)))
	used := make([]bool, len(classes))
	for len(out) < k {
		best := -1
		for i := range classes {
			if used[i] {
				continue
			}
			if best == -1 || scores[i] > scores[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		out = append(out, firstUnlabeled(st, int(classes[best])))
	}
	return out
}

// naivePrune is the definitional SimulatePrune: apply the label to a
// snapshot of the hypothesis, then reclassify every class (sigs, by
// position) with Meet/LessEq, counting its unlabeled tuples by
// scanning labels.
func naivePrune(st *core.State, sigs []partition.P, sig partition.P, l core.Label) int {
	mp, negs := naiveApply(st.MP(), st.Negatives(), sig, l)
	count := 0
	for c, csig := range sigs {
		n := naiveUnlabeled(st, c)
		if n == 0 {
			continue
		}
		if naiveImplied(mp, negs, csig) != core.Unlabeled {
			count += n
		}
	}
	return count
}

// naiveUnlabeled counts the unlabeled members of class c by scanning
// their labels.
func naiveUnlabeled(st *core.State, c int) int {
	n := 0
	for _, i := range st.ClassMembers(c) {
		if st.Label(int(i)) == core.Unlabeled {
			n++
		}
	}
	return n
}

// naiveApply refines a (M_P, negative antichain) hypothesis by one
// label, mirroring core.Hypo.Apply with explicit partition operations.
func naiveApply(mp partition.P, negs []partition.P, sig partition.P, l core.Label) (partition.P, []partition.P) {
	if l == core.Positive {
		return mp.Meet(sig), negs
	}
	for _, neg := range negs {
		if sig.LessEq(neg) {
			return mp, negs
		}
	}
	kept := make([]partition.P, 0, len(negs)+1)
	for _, neg := range negs {
		if !neg.LessEq(sig) {
			kept = append(kept, neg)
		}
	}
	return mp, append(kept, sig)
}

func naiveImplied(mp partition.P, negs []partition.P, sig partition.P) core.Label {
	if mp.LessEq(sig) {
		return core.ImpliedPositive
	}
	m := mp.Meet(sig)
	for _, neg := range negs {
		if m.LessEq(neg) {
			return core.ImpliedNegative
		}
	}
	return core.Unlabeled
}

// naiveL2 is the pre-refactor two-step lookahead: per-version memo of
// one-step scores and beam membership keyed by signature strings.
type naiveL2 struct {
	st      *core.State
	version int

	mp      partition.P
	negs    []partition.P
	groups  []core.GroupCount
	oneStep map[string]int
	inBeam  map[string]bool
}

func (c *naiveL2) refresh(st *core.State, sigs []partition.P) {
	if c.st == st && c.version == st.Version() && c.oneStep != nil {
		return
	}
	c.st = st
	c.version = st.Version()
	c.mp = st.MP()
	c.negs = append([]partition.P(nil), st.Negatives()...)
	c.groups = nil
	for k, sig := range sigs {
		if n := naiveUnlabeled(st, k); n > 0 {
			c.groups = append(c.groups, core.GroupCount{Sig: sig, Count: n})
		}
	}
	c.oneStep = make(map[string]int)

	type scored struct {
		key string
		val int
	}
	var all []scored
	for _, k := range st.InformativeClasses() {
		sig := sigs[k]
		p := naivePrune(st, sigs, sig, core.Positive)
		n := naivePrune(st, sigs, sig, core.Negative)
		key := sig.Key()
		c.oneStep[key] = min(p, n)
		all = append(all, scored{key: key, val: min(p, n)})
	}
	c.inBeam = make(map[string]bool, lookahead2Beam)
	for b := 0; b < lookahead2Beam && b < len(all); b++ {
		best := -1
		for i := range all {
			if c.inBeam[all[i].key] {
				continue
			}
			if best == -1 || all[i].val > all[best].val {
				best = i
			}
		}
		c.inBeam[all[best].key] = true
	}
}

func (c *naiveL2) score(st *core.State, sigs []partition.P, k int) float64 {
	c.refresh(st, sigs)
	sig := sigs[k]
	key := sig.Key()
	base := float64(c.oneStep[key])
	if !c.inBeam[key] {
		return base
	}
	worst := math.Inf(1)
	for _, l := range []core.Label{core.Positive, core.Negative} {
		immediate := naivePrune(st, sigs, sig, l)
		nmp, nnegs := naiveApply(c.mp, c.negs, sig, l)
		best := naiveBestOneStep(nmp, nnegs, c.groups)
		if total := float64(immediate + best); total < worst {
			worst = total
		}
	}
	if math.IsInf(worst, 1) {
		worst = base
	}
	return worst*1e3 + base
}

func naiveBestOneStep(mp partition.P, negs []partition.P, groups []core.GroupCount) int {
	var remaining []core.GroupCount
	for _, g := range groups {
		if naiveImplied(mp, negs, g.Sig) == core.Unlabeled {
			remaining = append(remaining, g)
		}
	}
	best := 0
	for _, g2 := range remaining {
		p := naivePruneCount(mp, negs, remaining, g2.Sig, core.Positive)
		n := naivePruneCount(mp, negs, remaining, g2.Sig, core.Negative)
		if m := min(p, n); m > best {
			best = m
		}
	}
	return best
}

func naivePruneCount(mp partition.P, negs []partition.P, groups []core.GroupCount, sig partition.P, l core.Label) int {
	nmp, nnegs := naiveApply(mp, negs, sig, l)
	count := 0
	for _, g := range groups {
		if naiveImplied(nmp, nnegs, g.Sig) != core.Unlabeled {
			count += g.Count
		}
	}
	return count
}
