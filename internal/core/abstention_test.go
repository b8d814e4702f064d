package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func TestAbstentionDefersAndRecovers(t *testing.T) {
	// A user who abstains with probability 0.4 still converges to the
	// goal: the engine defers the class and proposes something else.
	for seed := int64(0); seed < 8; seed++ {
		st := newTravelState(t)
		lab := oracle.Hesitant(oracle.Goal(workload.TravelQ2()), 0.4, seed)
		eng := core.NewEngine(st, strategy.LookaheadMaxMin(), lab)
		// A patient engine: with p=0.4 abstentions, the default
		// re-offer budget of 3 fails ~2.6% of the time on the last
		// remaining class; that is correct behavior, but this test
		// wants guaranteed convergence.
		eng.RedeferLimit = 64
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: hesitant run did not converge (abstentions=%d)", seed, res.Abstentions)
		}
		if !core.InstanceEquivalent(st.Relation(), res.Query, workload.TravelQ2()) {
			t.Errorf("seed %d: inferred %v", seed, res.Query)
		}
	}
}

func TestAbstentionCounted(t *testing.T) {
	st := newTravelState(t)
	// Abstain exactly once, then answer truthfully.
	lab := &abstainFirst{inner: oracle.Goal(workload.TravelQ2())}
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), lab)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Abstentions != 1 {
		t.Errorf("abstentions = %d, want 1", res.Abstentions)
	}
	if !res.Converged {
		t.Error("did not converge after one abstention")
	}
	// The abstention shows up as an Unlabeled step.
	found := false
	for _, s := range res.Steps {
		if s.Label == core.Unlabeled {
			found = true
		}
	}
	if !found {
		t.Error("abstention step missing from transcript")
	}
	// The engine must not re-ask the abstained tuple before any new
	// label arrives.
	if len(res.Steps) >= 2 && res.Steps[0].TupleIndex == res.Steps[1].TupleIndex {
		t.Error("engine immediately re-asked the abstained tuple")
	}
}

type abstainFirst struct {
	inner core.Labeler
	done  bool
}

func (a *abstainFirst) Name() string { return "abstain-first" }

func (a *abstainFirst) Label(st *core.State, i int) (core.Label, error) {
	if !a.done {
		a.done = true
		return core.Unlabeled, nil
	}
	return a.inner.Label(st, i)
}

func TestAllAbstainTerminates(t *testing.T) {
	st := newTravelState(t)
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), alwaysAbstain{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("all-abstain run claims convergence")
	}
	if res.UserLabels != 0 {
		t.Errorf("labels = %d, want 0", res.UserLabels)
	}
	if res.Abstentions == 0 {
		t.Error("no abstentions recorded")
	}
	// Each signature class is asked at most once per re-offer round;
	// the default budget allows 3 re-offers after the initial round.
	if res.Abstentions > 4*st.ClassCount() {
		t.Errorf("abstentions %d exceed 4 rounds over %d classes", res.Abstentions, st.ClassCount())
	}
}

type alwaysAbstain struct{}

func (alwaysAbstain) Name() string { return "always-abstain" }
func (alwaysAbstain) Label(*core.State, int) (core.Label, error) {
	return core.Unlabeled, nil
}

func TestAbstentionClearedByNewLabel(t *testing.T) {
	// Abstain on the first tuple, answer the second; the engine may
	// then return to the first class and must converge.
	st := newTravelState(t)
	lab := &alternatingAbstain{inner: oracle.Goal(workload.TravelQ2())}
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), lab)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("alternating abstainer did not converge (abstentions=%d, labels=%d)",
			res.Abstentions, res.UserLabels)
	}
	if res.Abstentions == 0 {
		t.Error("no abstention recorded")
	}
}

// alternatingAbstain abstains on every other question.
type alternatingAbstain struct {
	inner core.Labeler
	n     int
}

func (a *alternatingAbstain) Name() string { return "alternating-abstain" }

func (a *alternatingAbstain) Label(st *core.State, i int) (core.Label, error) {
	a.n++
	if a.n%2 == 1 {
		return core.Unlabeled, nil
	}
	return a.inner.Label(st, i)
}
