package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func TestRunTopKMaxSteps(t *testing.T) {
	st := newTravelState(t)
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(workload.TravelQ2()))
	eng.MaxSteps = 2
	res, err := eng.RunTopK(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.UserLabels > 2+2 {
		// A round may slightly overshoot (batch members already
		// fetched); the engine re-checks between rounds.
		t.Errorf("labels = %d with MaxSteps 2", res.UserLabels)
	}
}

func TestRunUserOrderMaxSteps(t *testing.T) {
	st := newTravelState(t)
	eng := core.NewEngine(st, strategy.Random(1), oracle.Goal(workload.TravelQ2()))
	eng.MaxSteps = 1
	order := []int{0, 1, 2, 3}
	res, err := eng.RunUserOrder(order, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.UserLabels != 1 {
		t.Errorf("labels = %d with MaxSteps 1", res.UserLabels)
	}
	if res.Converged {
		t.Error("one label converged")
	}
}

func TestEngineAccessors(t *testing.T) {
	st := newTravelState(t)
	picker := strategy.LookaheadMaxMin()
	eng := core.NewEngine(st, picker, oracle.Goal(workload.TravelQ2()))
	if eng.State() != st {
		t.Error("State accessor wrong")
	}
	if eng.Strategy() != picker.Name() {
		t.Errorf("Strategy = %q", eng.Strategy())
	}
}

func TestRunUserOrderSkipsExplicitDuplicates(t *testing.T) {
	st := newTravelState(t)
	if _, err := st.Apply(0, core.Negative); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st, strategy.Random(1), oracle.Goal(workload.TravelQ2()))
	order := []int{0, 0, 2} // tuple 0 already labeled; listed twice
	res, err := eng.RunUserOrder(order, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.TupleIndex == 0 {
			t.Error("re-asked an explicitly labeled tuple")
		}
	}
}

func TestVersionCounterBumpsOnApplyOnly(t *testing.T) {
	st := newTravelState(t)
	v0 := st.Version()
	_ = st.InformativeClasses()
	_ = st.SimulatePrune(st.Sig(2), core.Positive)
	if st.Version() != v0 {
		t.Error("read-only operations bumped the version")
	}
	if _, err := st.Apply(2, core.Positive); err != nil {
		t.Fatal(err)
	}
	if st.Version() != v0+1 {
		t.Errorf("version after Apply = %d, want %d", st.Version(), v0+1)
	}
	// Rejected labels do not bump.
	if _, err := st.Apply(3, core.Negative); err == nil {
		t.Fatal("expected contradiction")
	}
	if st.Version() != v0+1 {
		t.Error("rejected Apply bumped the version")
	}
}
