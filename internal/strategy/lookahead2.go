package strategy

import (
	"repro/internal/core"
)

// lookahead2Beam bounds the number of first-move candidates expanded to
// depth two; candidates are pre-ranked by the one-step maxmin score.
const lookahead2Beam = 8

// Lookahead2 returns a two-step lookahead strategy: the one-step
// maxmin score ranks all candidates, and the best lookahead2Beam of
// them are expanded one answer deeper, choosing the first move that
// maximizes the two-step guaranteed pruning
//
//	min over answer l of [ prune(g,l) + max_g' min_l' prune'(g',l') ].
//
// It is the natural deepening of lookahead-maxmin. One-step scores
// come from SimulatePrunesGroup over the state's projection table; the
// depth-two expansion runs through core.TwoStepWorst, which simulates
// both answer branches on memoized pair bitsets with reused scratch —
// per-pick cost is O(beam · classes²) word operations and, in steady
// state, zero allocations. The selection-time-vs-questions dial of the
// paper turned one notch further, now cheap enough for thousands of
// tuples.
func Lookahead2() core.KPicker {
	c := &l2cache{}
	return &ranked{name: "lookahead-2", score: c.score}
}

// l2cache memoizes the per-state one-step scores and beam membership,
// indexed by class position, plus the two-step scratch buffers. A
// cache entry is valid for one (state, version, structure version)
// triple — Append bumps both counters, but the structure version is
// checked explicitly so the cache contract matches ranked's. The
// scratch is shared across the instance's scoring calls, so, like
// ranked, it is not safe for concurrent use.
type l2cache struct {
	st            *core.State
	version       int
	structVersion int

	oneStep []int  // class position -> min(p, n)
	inBeam  []bool // class position -> beam membership
	infBuf  []int32
	scratch core.TwoStepScratch
}

func (c *l2cache) refresh(st *core.State) {
	if c.st == st && c.version == st.Version() && c.structVersion == st.StructureVersion() {
		return
	}
	c.st = st
	c.version = st.Version()
	c.structVersion = st.StructureVersion()
	c.infBuf = st.AppendInformativeClasses(c.infBuf[:0])

	total := st.ClassCount()
	if cap(c.oneStep) < total {
		c.oneStep = make([]int, total)
		c.inBeam = make([]bool, total)
	}
	c.oneStep = c.oneStep[:total]
	c.inBeam = c.inBeam[:total]
	for i := range c.inBeam {
		c.inBeam[i] = false
	}
	for _, g := range c.infBuf {
		p, n := st.SimulatePrunesGroup(int(g))
		c.oneStep[g] = min(p, n)
	}
	// Select the beam: top lookahead2Beam by one-step score, ties to
	// the earlier class (the pre-refactor iteration order).
	for b := 0; b < lookahead2Beam && b < len(c.infBuf); b++ {
		best := -1
		for _, g := range c.infBuf {
			if c.inBeam[g] {
				continue
			}
			if best == -1 || c.oneStep[g] > c.oneStep[best] {
				best = int(g)
			}
		}
		c.inBeam[best] = true
	}
}

func (c *l2cache) score(st *core.State, g int) float64 {
	c.refresh(st)
	base := float64(c.oneStep[g])
	if !c.inBeam[g] {
		return base // outside the beam: one-step score only
	}
	worst := st.TwoStepWorst(g, &c.scratch)
	// Two-step worst case dominates; one-step maxmin breaks ties.
	return float64(worst)*1e3 + base
}
