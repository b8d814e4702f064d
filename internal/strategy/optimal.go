package strategy

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
)

// DefaultOptimalBudget bounds the number of minimax states the optimal
// strategy explores before falling back to lookahead-maxmin.
const DefaultOptimalBudget = 2_000_000

// Optimal returns the exponential-time optimal strategy the paper
// mentions ("there exists an algorithm that computes the optimal
// strategy of showing tuples to the user, but it requires exponential
// time, which unfortunately renders it unusable in practice"). It
// minimizes the worst-case number of questions by exact minimax over
// the decision tree of (hypothesis-meet, negative-antichain) states,
// memoized by canonical state key.
//
// budget caps explored states; when exceeded, Pick falls back to
// lookahead-maxmin for that step (the fallback is counted and
// reported by Fallbacks). Use only on tiny instances — that blow-up is
// itself experiment E9.
func Optimal(budget int) *OptimalStrategy {
	return &OptimalStrategy{budget: budget}
}

// OptimalStrategy is the exact minimax strategy; see Optimal.
type OptimalStrategy struct {
	budget    int
	explored  int
	fallbacks int
	memo      map[string]int
	fallback  core.KPicker
}

// Name implements core.Picker.
func (o *OptimalStrategy) Name() string { return "optimal" }

// Explored returns the number of minimax states evaluated so far.
func (o *OptimalStrategy) Explored() int { return o.explored }

// Fallbacks returns how many Pick calls exceeded the budget and
// delegated to lookahead-maxmin.
func (o *OptimalStrategy) Fallbacks() int { return o.fallbacks }

// simState is an immutable snapshot of what determines the remaining
// game: the hypothesis meet and the negative antichain. The instance's
// signature classes are fixed throughout and carried separately.
type simState struct {
	mp   partition.P
	negs []partition.P
}

func (s simState) key() string {
	keys := make([]string, len(s.negs))
	for i, n := range s.negs {
		keys[i] = n.Key()
	}
	sort.Strings(keys)
	return s.mp.Key() + "|" + strings.Join(keys, ",")
}

// informative lists the signatures still informative in s.
func (s simState) informative(sigs []partition.P) []partition.P {
	var out []partition.P
	for _, sig := range sigs {
		if s.impliedPositive(sig) || s.impliedNegative(sig) {
			continue
		}
		out = append(out, sig)
	}
	return out
}

func (s simState) impliedPositive(sig partition.P) bool { return s.mp.LessEq(sig) }

func (s simState) impliedNegative(sig partition.P) bool {
	m := s.mp.Meet(sig)
	for _, neg := range s.negs {
		if m.LessEq(neg) {
			return true
		}
	}
	return false
}

func (s simState) labelPositive(sig partition.P) simState {
	return simState{mp: s.mp.Meet(sig), negs: s.negs}
}

func (s simState) labelNegative(sig partition.P) simState {
	// Maintain the maximal antichain, mirroring State.addNegative.
	for _, neg := range s.negs {
		if sig.LessEq(neg) {
			return s
		}
	}
	negs := make([]partition.P, 0, len(s.negs)+1)
	for _, neg := range s.negs {
		if !neg.LessEq(sig) {
			negs = append(negs, neg)
		}
	}
	return simState{mp: s.mp, negs: append(negs, sig)}
}

// Pick implements core.Picker: it returns the tuple minimizing the
// worst-case number of further questions.
func (o *OptimalStrategy) Pick(st *core.State) (int, bool) {
	classes := st.InformativeClasses()
	if len(classes) == 0 {
		return 0, false
	}
	if o.fallback == nil {
		o.fallback = LookaheadMaxMin()
	}
	o.memo = make(map[string]int)
	o.explored = 0

	sigs := classSigs(st)
	s := simState{mp: st.MP(), negs: append([]partition.P(nil), st.Negatives()...)}

	bestClass, bestCost := -1, -1
	for _, c := range classes {
		cost, ok := o.questionCost(s, sigs[c], sigs)
		if !ok {
			o.fallbacks++
			return o.fallback.Pick(st)
		}
		if bestCost == -1 || cost < bestCost {
			bestClass, bestCost = int(c), cost
		}
	}
	return firstUnlabeled(st, bestClass), true
}

// PickK implements core.KPicker by ranking groups on worst-case cost.
func (o *OptimalStrategy) PickK(st *core.State, k int) []int {
	// For the optimal strategy top-k ranking is rarely needed; rank by
	// ascending minimax cost, falling back wholesale on budget blowout.
	classes := st.InformativeClasses()
	if len(classes) == 0 {
		return nil
	}
	if o.fallback == nil {
		o.fallback = LookaheadMaxMin()
	}
	o.memo = make(map[string]int)
	sigs := classSigs(st)
	s := simState{mp: st.MP(), negs: append([]partition.P(nil), st.Negatives()...)}
	type cc struct {
		c, cost int
	}
	costs := make([]cc, 0, len(classes))
	for _, c := range classes {
		cost, ok := o.questionCost(s, sigs[c], sigs)
		if !ok {
			o.fallbacks++
			return o.fallback.PickK(st, k)
		}
		costs = append(costs, cc{c: int(c), cost: cost})
	}
	sort.SliceStable(costs, func(a, b int) bool { return costs[a].cost < costs[b].cost })
	// k arrives unbounded from clients; one tuple per class is the most
	// the ranking can return, so that bounds the allocation.
	out := make([]int, 0, min(k, len(costs)))
	for _, c := range costs {
		if len(out) == k {
			break
		}
		out = append(out, firstUnlabeled(st, c.c))
	}
	return out
}

// questionCost returns 1 + worst-case remaining cost after asking sig.
func (o *OptimalStrategy) questionCost(s simState, sig partition.P, sigs []partition.P) (int, bool) {
	posCost, ok := o.value(s.labelPositive(sig), sigs)
	if !ok {
		return 0, false
	}
	negCost, ok := o.value(s.labelNegative(sig), sigs)
	if !ok {
		return 0, false
	}
	return 1 + max(posCost, negCost), true
}

// value returns the minimax number of questions needed from state s.
func (o *OptimalStrategy) value(s simState, sigs []partition.P) (int, bool) {
	key := s.key()
	if v, hit := o.memo[key]; hit {
		return v, true
	}
	o.explored++
	if o.explored > o.budget {
		return 0, false
	}
	informative := s.informative(sigs)
	if len(informative) == 0 {
		o.memo[key] = 0
		return 0, true
	}
	best := -1
	for _, sig := range informative {
		cost, ok := o.questionCost(s, sig, sigs)
		if !ok {
			return 0, false
		}
		if best == -1 || cost < best {
			best = cost
		}
		if best == 1 {
			break // cannot do better than one question
		}
	}
	o.memo[key] = best
	return best, true
}
