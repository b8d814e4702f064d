package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func newTravelSession(t *testing.T) *core.Session {
	t.Helper()
	st, err := core.NewState(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	return core.NewSession(st, strategy.LookaheadMaxMin())
}

// TestSessionPullLoop drives the full dialogue through the pull API
// and checks it converges to the goal with the same question count as
// the engine over the same strategy.
func TestSessionPullLoop(t *testing.T) {
	goal := workload.TravelQ2()
	rel := workload.Travel()

	refSt, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewEngine(refSt, strategy.LookaheadMaxMin(), oracle.Goal(goal)).Run()
	if err != nil {
		t.Fatal(err)
	}

	sess := newTravelSession(t)
	questions := 0
	for {
		i, ok := sess.Propose()
		if !ok {
			break
		}
		l := core.Negative
		if core.Selects(goal, rel.Tuple(i)) {
			l = core.Positive
		}
		if _, err := sess.Answer(i, l); err != nil {
			t.Fatal(err)
		}
		questions++
		if questions > rel.Len() {
			t.Fatal("session asked more questions than tuples")
		}
	}
	if !sess.Done() {
		t.Error("session did not converge")
	}
	if !sess.Result().Equal(ref.Query) {
		t.Errorf("session inferred %v, engine %v", sess.Result(), ref.Query)
	}
	if questions != ref.UserLabels {
		t.Errorf("session asked %d questions, engine %d", questions, ref.UserLabels)
	}
}

// TestSessionSkipRoutesAround checks Propose avoids skipped classes
// and re-offers when everything is skipped.
func TestSessionSkipRoutesAround(t *testing.T) {
	sess := newTravelSession(t)
	i, ok := sess.Propose()
	if !ok {
		t.Fatal("no proposal on a fresh session")
	}
	if err := sess.Skip(i); err != nil {
		t.Fatal(err)
	}
	j, ok := sess.Propose()
	if !ok {
		t.Fatal("no alternative after one skip")
	}
	if sess.State().ClassOf(j) == sess.State().ClassOf(i) {
		t.Error("Propose re-offered the skipped class immediately")
	}
	// Skip everything informative: with unlimited re-offers the session
	// must loop back instead of giving up.
	sess.RedeferLimit = -1
	for _, idx := range sess.State().InformativeIndices() {
		if err := sess.Skip(idx); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := sess.Propose(); !ok {
		t.Error("unlimited re-offer session refused to re-propose")
	}
}

// TestSessionRedeferBudget checks the bounded re-offer behavior: after
// RedeferLimit rounds of everything-skipped, Propose gives up.
func TestSessionRedeferBudget(t *testing.T) {
	sess := newTravelSession(t)
	sess.RedeferLimit = 2
	skipAll := func() {
		for _, idx := range sess.State().InformativeIndices() {
			if err := sess.Skip(idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 2; round++ {
		skipAll()
		if _, ok := sess.Propose(); !ok {
			t.Fatalf("round %d: budget exhausted early", round)
		}
	}
	skipAll()
	if _, ok := sess.Propose(); ok {
		t.Error("Propose kept re-offering past RedeferLimit")
	}
}

// TestSessionTypedErrors exercises the sentinel errors.
func TestSessionTypedErrors(t *testing.T) {
	sess := newTravelSession(t)
	if _, err := sess.Answer(99, core.Positive); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("out-of-range answer: %v", err)
	}
	if err := sess.Skip(-1); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("out-of-range skip: %v", err)
	}
	// (12)+ implies (3)+ on travel; labeling (3)- is inconsistent.
	if _, err := sess.Answer(11, core.Positive); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Answer(11, core.Negative); !errors.Is(err, core.ErrAlreadyLabeled) {
		t.Errorf("relabel: %v", err)
	}
	if _, err := sess.Answer(2, core.Negative); !errors.Is(err, core.ErrInconsistent) {
		t.Errorf("inconsistent: %v", err)
	}
	// Same answer under SkipOnConflict comes back as a conflict outcome.
	sess.OnConflict = core.SkipOnConflict
	out, err := sess.Answer(2, core.Negative)
	if err != nil || !out.Conflict {
		t.Errorf("SkipOnConflict outcome = %+v, err %v", out, err)
	}
	// Drain to convergence, then answers must fail with ErrSessionDone.
	goal := workload.TravelQ2()
	rel := sess.State().Relation()
	for {
		i, ok := sess.Propose()
		if !ok {
			break
		}
		l := core.Negative
		if core.Selects(goal, rel.Tuple(i)) {
			l = core.Positive
		}
		if _, err := sess.Answer(i, l); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.Done() {
		t.Fatal("session did not converge")
	}
	if err := sess.Skip(3); !errors.Is(err, core.ErrSessionDone) {
		t.Errorf("skip after convergence: %v", err)
	}
	if _, err := sess.TopK(0); err == nil {
		t.Error("TopK(0) accepted")
	}
}

// TestSessionAppendSchemaMismatch checks a wrong-arity arrival batch
// fails with the sentinel and leaves the session untouched.
func TestSessionAppendSchemaMismatch(t *testing.T) {
	sess := newTravelSession(t)
	before := sess.State().Relation().Len()
	b, err := relation.BatchOf(2, []relation.Tuple{make(relation.Tuple, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Append(b); !errors.Is(err, core.ErrSchemaMismatch) {
		t.Errorf("bad-arity append: %v", err)
	}
	if sess.State().Relation().Len() != before {
		t.Error("failed append mutated the instance")
	}
}
