package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestHypoMatchesState(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 3, core.Positive)
	mustApply(t, st, 8, core.Negative)
	h := st.Hypo()
	if !h.MP.Equal(st.MP()) {
		t.Errorf("Hypo MP = %v, state MP = %v", h.MP, st.MP())
	}
	if len(h.Negs) != len(st.Negatives()) {
		t.Errorf("Hypo negs = %v", h.Negs)
	}
	// Same implied labels for every signature class.
	for c := range st.ClassCount() {
		sig := st.ClassSig(c)
		if got, want := h.ImpliedLabel(sig), st.ImpliedLabel(sig); got != want {
			t.Errorf("sig %v: hypo %v, state %v", sig, got, want)
		}
	}
}

func TestHypoApplyMirrorsStateApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel, goal, err := workload.Synthetic(workload.SynthConfig{
			Attrs: 5, Tuples: 25, Seed: seed, ExtraMerges: 1.3,
		})
		if err != nil {
			return false
		}
		st, err := core.NewState(rel)
		if err != nil {
			return false
		}
		h := st.Hypo()
		for steps := 0; steps < 5 && !st.Done(); steps++ {
			inf := st.InformativeIndices()
			i := inf[rng.Intn(len(inf))]
			l := core.Positive
			if !goal.LessEq(st.Sig(i)) {
				l = core.Negative
			}
			h = h.Apply(st.Sig(i), l)
			if _, err := st.Apply(i, l); err != nil {
				return false
			}
			if !h.MP.Equal(st.MP()) {
				return false
			}
			if len(h.Negs) != len(st.Negatives()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHypoApplyDoesNotMutate(t *testing.T) {
	st := newTravelState(t)
	h := st.Hypo()
	mpBefore := h.MP
	_ = h.Apply(st.Sig(2), core.Positive)
	_ = h.Apply(st.Sig(7), core.Negative)
	if !h.MP.Equal(mpBefore) || len(h.Negs) != 0 {
		t.Error("Hypo.Apply mutated the receiver")
	}
}

func TestHypoPruneCountEqualsSimulatePrune(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 12, core.Positive)
	h := st.Hypo()
	groups := st.GroupCounts()
	for _, c := range st.InformativeClasses() {
		sig := st.ClassSig(int(c))
		for _, l := range []core.Label{core.Positive, core.Negative} {
			want := st.SimulatePrune(sig, l)
			got := h.PruneCount(groups, sig, l)
			if got != want {
				t.Errorf("sig %v label %v: hypo %d, state %d", sig, l, got, want)
			}
		}
	}
}

func TestGroupCountsSumToUnlabeled(t *testing.T) {
	st := newTravelState(t)
	mustApply(t, st, 12, core.Positive)
	total := 0
	for _, g := range st.GroupCounts() {
		if g.Count <= 0 {
			t.Errorf("group %v with count %d", g.Sig, g.Count)
		}
		total += g.Count
	}
	// GroupCounts counts unlabeled tuples only.
	if total != st.InformativeCount() {
		t.Errorf("group counts sum %d, informative %d", total, st.InformativeCount())
	}
}

func TestHypoInformative(t *testing.T) {
	st := newTravelState(t)
	h := st.Hypo()
	groups := st.GroupCounts()
	if got := h.Informative(groups); len(got) != len(groups) {
		t.Errorf("fresh hypo filtered groups: %d of %d", len(got), len(groups))
	}
	h2 := h.Apply(st.Sig(2), core.Positive) // M_P = Q2
	remaining := h2.Informative(groups)
	if len(remaining) >= len(groups) {
		t.Error("labeling did not reduce informative groups")
	}
}
