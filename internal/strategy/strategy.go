package strategy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/partition"
)

// ranked is the common scaffolding: a strategy that totally orders the
// informative signature classes by a score (higher = asked first).
// It implements both core.Picker and core.KPicker.
//
// A ranked instance memoizes one state's scores (indexed by class
// position, so the buffer survives classes becoming uninformative) and
// is NOT safe for concurrent use — the HTTP layer serializes picker
// access per session (pickMu), matching the pre-existing contract for
// stateful pickers.
type ranked struct {
	name string
	// score returns the priority of asking about class c now.
	score func(st *core.State, c int) float64
	// mpOnly marks score as a function of M_P and the class signature
	// alone: cached scores stay valid while State.MPVersion stands.
	mpOnly bool

	cst            *core.State // state the cache belongs to
	cversion       int         // State.Version the scores were computed at
	cmpVersion     int         // State.MPVersion likewise
	cstructVersion int         // State.StructureVersion likewise
	cvalid         bool
	scores         []float64 // score per class position
	infBuf         []int32   // reusable informative-class list

	// Per-instance scratch, reused so the steady-state pick path is
	// 0 allocs/op: the partial-sort heap of PickK, and PickK's result
	// buffer (returned to the caller; see PickK for the ownership
	// contract).
	topBuf []int32
	outBuf []int
}

func (s *ranked) Name() string { return s.name }

// refresh returns the informative classes with s.scores valid for
// them, rescoring only when the cached version no longer matches. The
// cache key is the triple (Version, MPVersion, StructureVersion):
// Version catches labels, StructureVersion catches Appends — which
// add classes, grow class sizes, and shift unlabeled populations, so
// rankings conditioned on the old class set invalidate exactly when
// the structure changes. Scoring runs on the caller's goroutine: no
// benchmark workload's rescore is large enough for a second core to
// pay for its handoff (DESIGN.md §5).
func (s *ranked) refresh(st *core.State) []int32 {
	if s.cvalid && s.cst == st && s.cstructVersion == st.StructureVersion() {
		if s.cversion == st.Version() {
			return s.infBuf
		}
		if s.mpOnly && s.cmpVersion == st.MPVersion() {
			// Scores depend only on (M_P, signature) pairs that did not
			// move; only the candidate list shrank. (Appends are excluded
			// above: they change class sizes, which the tiebreak reads.)
			s.infBuf = st.AppendInformativeClasses(s.infBuf[:0])
			s.cversion = st.Version()
			return s.infBuf
		}
	}
	s.infBuf = st.AppendInformativeClasses(s.infBuf[:0])
	if cap(s.scores) < st.ClassCount() {
		s.scores = make([]float64, st.ClassCount())
	}
	s.scores = s.scores[:st.ClassCount()]
	for _, c := range s.infBuf {
		s.scores[c] = s.score(st, int(c))
	}
	s.cst, s.cversion, s.cmpVersion, s.cstructVersion, s.cvalid =
		st, st.Version(), st.MPVersion(), st.StructureVersion(), true
	return s.infBuf
}

// Pick returns the first tuple of the best-scoring informative class.
func (s *ranked) Pick(st *core.State) (int, bool) {
	classes := s.refresh(st)
	if len(classes) == 0 {
		return 0, false
	}
	best := -1
	bestScore := math.Inf(-1)
	for _, c := range classes {
		if sc := s.scores[c]; sc > bestScore {
			best, bestScore = int(c), sc
		}
	}
	return firstUnlabeled(st, best), true
}

// PickK returns up to k informative tuples, best class first, at most
// one tuple per class (labeling one member of a class settles the
// whole class, so proposing two is never useful). Selection is a
// size-k partial sort — a min-heap over the candidate classes — so
// ranking costs O(C log k) instead of the old O(k·C) selection sort.
// Order matches the full sort by (score descending, class position
// ascending), i.e. ties go to the earlier class, exactly as before.
//
// The returned slice is owned by the strategy and valid until the next
// Pick or PickK on it: callers that retain the proposal past that
// point (the public facade does) must copy it. Engine loops and the
// HTTP handlers consume it before picking again.
func (s *ranked) PickK(st *core.State, k int) []int {
	if k <= 0 {
		return nil
	}
	classes := s.refresh(st)
	if len(classes) == 0 {
		return nil
	}
	s.topBuf = topKClasses(s.topBuf, classes, s.scores, k)
	s.outBuf = s.outBuf[:0]
	for _, c := range s.topBuf {
		s.outBuf = append(s.outBuf, firstUnlabeled(st, int(c)))
	}
	return s.outBuf
}

// topKClasses selects the k best classes by (score desc, position asc)
// into buf, reusing its backing array, and returns it. The heap
// comparator is a strict total order (class positions are unique), so
// the closure-free heapsort below reproduces the stable full sort
// exactly.
func topKClasses(buf, classes []int32, scores []float64, k int) []int32 {
	if k > len(classes) {
		k = len(classes)
	}
	h := append(buf[:0], classes[:k]...)
	// Min-root heap of the k best so far: the worst kept candidate at
	// the root, displaced whenever a better one arrives.
	for i := k/2 - 1; i >= 0; i-- {
		siftWorstDown(h, scores, i, k)
	}
	for _, c := range classes[k:] {
		if classBetter(scores, c, h[0]) {
			h[0] = c
			siftWorstDown(h, scores, 0, k)
		}
	}
	// Heapsort: repeatedly move the worst remaining candidate to the
	// shrinking tail, leaving the array best-first.
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftWorstDown(h, scores, 0, end)
	}
	return h
}

// classBetter is the ranking order: score descending, ties to the
// earlier class position.
func classBetter(scores []float64, a, b int32) bool {
	sa, sb := scores[a], scores[b]
	if sa != sb {
		return sa > sb
	}
	return a < b
}

// siftWorstDown restores the min-root heap property (parent no better
// than its children) for h[:n] starting at i.
func siftWorstDown(h []int32, scores []float64, i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && classBetter(scores, h[worst], h[l]) {
			worst = l
		}
		if r < n && classBetter(scores, h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// firstUnlabeled returns the first unlabeled member of class c.
func firstUnlabeled(st *core.State, c int) int {
	for _, i := range st.ClassMembers(c) {
		if st.Label(int(i)) == core.Unlabeled {
			return int(i)
		}
	}
	// Unreachable for informative classes; fail loudly if violated.
	panic(fmt.Sprintf("strategy: informative class %d (%v) has no unlabeled tuple", c, st.ClassSig(c)))
}

// Random returns the paper's baseline strategy: a uniformly random
// informative tuple. Classes are drawn with probability proportional
// to their size (the weighted-sampling key u^(1/w)), which is exactly
// a uniform draw over informative tuples. Seeded for reproducible
// experiments.
//
// Each class's draw u is a hash of (seed, explicit-label count,
// instance size, class position) rather than a step of a mutable RNG:
// every labeling step and every arrival batch gets a fresh
// independent draw, but the draw is a pure function of the state.
// That keeps re-proposing without new information stable and — the
// property the durable session store relies on — lets a session
// recovered from a snapshot + WAL replay propose exactly the tuples
// the uninterrupted run would have. naive.go mirrors the formula.
func Random(seed int64) core.KPicker {
	return &ranked{
		name: "random",
		score: func(st *core.State, c int) float64 {
			return randomScore(seed, st, c)
		},
	}
}

// randomScore is the shared weighted-sampling key of the incremental
// and naive random strategies. The hash is keyed on logical state —
// explicit-label count and instance size — rather than the state's
// version counters, which depend on the construction path: a state
// rebuilt from a snapshot (one big Append) must draw exactly like the
// live state it mirrors (many small ones).
func randomScore(seed int64, st *core.State, c int) float64 {
	p := st.Progress()
	u := hashUnit(uint64(seed), uint64(p.Explicit), uint64(p.Total), uint64(c))
	return math.Pow(u, 1/float64(len(st.ClassMembers(c))))
}

// hashUnit mixes its words through SplitMix64 finalizers into a
// uniform float64 in (0,1).
func hashUnit(words ...uint64) float64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h += w
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return (float64(h>>11) + 0.5) / (1 << 53)
}

// LocalMostSpecific returns the local strategy preferring tuples whose
// signature overlaps the current hypothesis M_P the most (largest
// |Pairs(Eq(t) ⋀ M_P)|): likely positives that refine M_P quickly.
// Ties break toward larger signature classes, then stable order.
func LocalMostSpecific() core.KPicker {
	return &ranked{
		name:   "local-most-specific",
		mpOnly: true,
		score: func(st *core.State, c int) float64 {
			overlap := partition.IntersectCount(st.MP().PairSet(), st.ClassPairs(c))
			return float64(overlap) + float64(len(st.ClassMembers(c)))*1e-6
		},
	}
}

// LocalLeastSpecific returns the local strategy preferring tuples whose
// signature overlaps M_P the least: likely negatives that cut away
// large portions of the hypothesis cone. Ties break toward larger
// signature classes.
func LocalLeastSpecific() core.KPicker {
	return &ranked{
		name:   "local-least-specific",
		mpOnly: true,
		score: func(st *core.State, c int) float64 {
			overlap := partition.IntersectCount(st.MP().PairSet(), st.ClassPairs(c))
			return -float64(overlap) + float64(len(st.ClassMembers(c)))*1e-6
		},
	}
}

// LookaheadMaxMin returns the lookahead strategy maximizing the
// guaranteed pruning min(p, n) — the adversarial one-step bound —
// breaking ties by total pruning p+n.
func LookaheadMaxMin() core.KPicker {
	return &ranked{
		name: "lookahead-maxmin",
		score: func(st *core.State, c int) float64 {
			p, n := st.SimulatePrunesGroup(c)
			lo := min(p, n)
			return float64(lo)*1e6 + float64(p+n)
		},
	}
}

// LookaheadExpected returns the lookahead strategy maximizing the
// expected pruning (p+n)/2 under a uniform answer model.
func LookaheadExpected() core.KPicker {
	return &ranked{
		name: "lookahead-expected",
		score: func(st *core.State, c int) float64 {
			p, n := st.SimulatePrunesGroup(c)
			return float64(p+n) / 2
		},
	}
}

// LookaheadEntropy returns the lookahead strategy scoring each class by
// a generalized entropy over its prune split: H(p/(p+n)) · (p+n). The
// entropy factor favors balanced questions (both answers informative),
// the magnitude factor favors questions that settle many tuples.
func LookaheadEntropy() core.KPicker {
	return &ranked{
		name: "lookahead-entropy",
		score: func(st *core.State, c int) float64 {
			p, n := st.SimulatePrunesGroup(c)
			total := p + n
			if total == 0 {
				return 0
			}
			q := float64(p) / float64(total)
			return entropy(q) * float64(total)
		},
	}
}

func entropy(q float64) float64 {
	if q <= 0 || q >= 1 {
		return 0
	}
	return -(q*math.Log2(q) + (1-q)*math.Log2(1-q))
}

// ErrUnknown reports a strategy name ByName does not recognize.
var ErrUnknown = errors.New("strategy: unknown strategy")

// ByName builds a strategy from its report name. Seed feeds the random
// strategy and is ignored by the deterministic ones.
func ByName(name string, seed int64) (core.KPicker, error) {
	switch name {
	case "random":
		return Random(seed), nil
	case "local-most-specific":
		return LocalMostSpecific(), nil
	case "local-least-specific":
		return LocalLeastSpecific(), nil
	case "lookahead-maxmin":
		return LookaheadMaxMin(), nil
	case "lookahead-expected":
		return LookaheadExpected(), nil
	case "lookahead-entropy":
		return LookaheadEntropy(), nil
	case "lookahead-2":
		return Lookahead2(), nil
	case "optimal":
		return Optimal(DefaultOptimalBudget), nil
	}
	return nil, fmt.Errorf("%w %q (want one of %v)", ErrUnknown, name, Names())
}

// Names lists the report names accepted by ByName, heuristics first.
func Names() []string {
	return []string{
		"random",
		"local-most-specific",
		"local-least-specific",
		"lookahead-maxmin",
		"lookahead-expected",
		"lookahead-entropy",
		"lookahead-2",
		"optimal",
	}
}

// HeuristicNames lists the polynomial-time strategies — Names without
// the exponential optimal strategy. Every entry is accepted by both
// ByName and Naive.
func HeuristicNames() []string {
	names := Names()
	return names[:len(names)-1]
}

// Heuristics returns fresh instances of every practical (polynomial-
// time) strategy, for comparison experiments.
func Heuristics(seed int64) []core.KPicker {
	return []core.KPicker{
		Random(seed),
		LocalMostSpecific(),
		LocalLeastSpecific(),
		LookaheadMaxMin(),
		LookaheadExpected(),
		LookaheadEntropy(),
		Lookahead2(),
	}
}
