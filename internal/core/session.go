package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/partition"
	"repro/internal/relation"
)

// ErrSessionDone reports an answer or skip on a session that has
// already converged: every tuple carries a label and no membership
// query remains to be asked.
var ErrSessionDone = errors.New("core: session has converged; nothing left to answer")

// ErrOutOfRange reports a tuple index outside the instance.
var ErrOutOfRange = errors.New("core: tuple index out of range")

// ErrSchemaMismatch reports tuples whose shape does not match the
// session's instance (wrong arity or attribute set).
var ErrSchemaMismatch = errors.New("core: tuple does not match the instance schema")

// Session is the canonical pull-based interaction surface of JIM — the
// paper's Figure 2 dialogue as an object: the caller asks for a
// proposal (Propose or TopK), answers or skips it, optionally streams
// new tuples in, and reads the running result, until Done. Engine's
// driver loops, the public jim.Session facade, and the HTTP server are
// all thin shells over this type, so proposal routing around skipped
// classes lives in exactly one place.
//
// A Session is not safe for concurrent use; callers that share one
// across goroutines (the HTTP layer) serialize access themselves.
type Session struct {
	st     *State
	picker Picker

	// OnConflict decides what Answer does with a label contradicting
	// earlier ones (default FailOnConflict).
	OnConflict ConflictPolicy
	// RedeferLimit bounds how many times Propose re-offers tuples whose
	// classes were all skipped, between answers: 0 means the default of
	// 3, negative means unlimited (interactive clients that explicitly
	// skipped can only be asked again). An accepted answer resets the
	// budget.
	RedeferLimit int

	// deferred marks, by class position, the signature classes the
	// caller skipped; nil when none is. Cleared when a new label or
	// batch of tuples arrives (fresh context may help decide) or when a
	// re-offer round starts.
	deferred    []bool
	redeferrals int
	// skipClears counts re-offer rounds: Propose clearing a fully
	// skipped set. Observable via SkipClears so transports that log
	// mutations (the durable session store) can record that a proposal
	// mutated the skip set — the one state change a read path makes.
	skipClears int
	infBuf     []int // reusable buffer for deferred-routing scans
}

// NewSession opens a pull-based session over an existing state, so
// callers may pre-seed labels before interaction starts.
func NewSession(st *State, picker Picker) *Session {
	return &Session{st: st, picker: picker}
}

// State exposes the session's inference state.
func (s *Session) State() *State { return s.st }

// Strategy returns the picker's name.
func (s *Session) Strategy() string { return s.picker.Name() }

// Done reports convergence: no informative tuple remains.
func (s *Session) Done() bool { return s.st.Done() }

// Result returns the canonical inferred query M_P — the current best
// hypothesis mid-session, the answer at convergence.
func (s *Session) Result() partition.P { return s.st.Result() }

// Progress returns the current labeling progress.
func (s *Session) Progress() Progress { return s.st.Progress() }

// Explain justifies the current label of tuple i.
func (s *Session) Explain(i int) (Explanation, error) { return s.st.Explain(i) }

// Propose returns the next informative tuple to ask about, routing
// around skipped classes: the strategy's choice is honored unless the
// caller skipped its class, in which case the ranked alternatives
// (KPicker) or the remaining informative tuples are scanned for an
// un-skipped one. When every informative class is skipped, the skip
// set is cleared and the tuples re-offered, within RedeferLimit rounds
// between answers. ok=false means convergence, or an exhausted
// re-offer budget with nothing else to ask.
func (s *Session) Propose() (i int, ok bool) {
	i, ok = s.picker.Pick(s.st)
	if !ok {
		return 0, false
	}
	if !s.skipped(i) {
		return i, true
	}
	if kp, isKP := s.picker.(KPicker); isKP {
		// Ask for exactly the informative-class count: ranking can never
		// return more than one tuple per class, so requesting the total
		// class count only made the ranker chew on settled classes.
		for _, j := range kp.PickK(s.st, s.st.InformativeGroupCount()) {
			if !s.skipped(j) {
				return j, true
			}
		}
	}
	s.infBuf = s.st.AppendInformativeIndices(s.infBuf[:0])
	for _, j := range s.infBuf {
		if !s.skipped(j) {
			return j, true
		}
	}
	// Everything informative is skipped: re-offer, within budget.
	limit := s.RedeferLimit
	if limit == 0 {
		limit = 3
	}
	if limit > 0 && s.redeferrals >= limit {
		return 0, false
	}
	s.redeferrals++
	s.skipClears++
	s.deferred = nil
	return i, true
}

// SkipClears counts the re-offer rounds so far: each time Propose
// found every informative class skipped and cleared the set. A caller
// that must persist every skip-set mutation (the durable store's WAL)
// compares it around Propose and records a clear event when it moved.
func (s *Session) SkipClears() int { return s.skipClears }

// ClearSkips replays one re-offer round: the WAL-replay counterpart of
// the clear Propose performs when everything informative is skipped.
func (s *Session) ClearSkips() {
	s.redeferrals++
	s.skipClears++
	s.deferred = nil
}

// TopK returns the k most informative tuples, best first — interaction
// mode 3's batch proposal. Strategies that cannot rank (plain Pickers)
// and k < 1 are rejected. The returned slice follows the KPicker
// ownership contract: it is valid until the session's next proposal
// and must be copied to be retained.
func (s *Session) TopK(k int) ([]int, error) {
	kp, ok := s.picker.(KPicker)
	if !ok {
		return nil, fmt.Errorf("core: strategy %q cannot rank top-k tuples", s.picker.Name())
	}
	if k < 1 {
		return nil, fmt.Errorf("core: TopK requires k >= 1, got %d", k)
	}
	return kp.PickK(s.st, k), nil
}

// AnswerOutcome reports what one accepted answer did to the state.
type AnswerOutcome struct {
	// NewlyImplied lists the tuples grayed out by this label.
	NewlyImplied []int
	// Conflict reports the label contradicted earlier ones and was
	// dropped under SkipOnConflict (the implied label was kept).
	Conflict bool
	// Wasted reports the tuple was already uninformative when labeled
	// (possible in user-order modes).
	Wasted bool
}

// Answer records an explicit label for tuple i and propagates its
// consequences. Contradictory labels fail with ErrInconsistent under
// FailOnConflict and come back as Outcome.Conflict (state unchanged,
// no error) under SkipOnConflict. A bad index fails with
// ErrOutOfRange; relabeling an explicit label with ErrAlreadyLabeled.
// Labeling an uninformative tuple consistently is allowed even after
// convergence — it pins an implied label down explicitly (interaction
// modes 1–2) — and reports Outcome.Wasted. An accepted answer clears
// the skip set — fresh information may unblock skipped classes — and
// resets the re-offer budget. Outcome.NewlyImplied is a view of
// State-owned scratch, valid until the next answer or append; a caller
// that keeps it clones it.
func (s *Session) Answer(i int, l Label) (AnswerOutcome, error) {
	if i < 0 || i >= s.st.Relation().Len() {
		return AnswerOutcome{}, fmt.Errorf("%w: %d not in [0,%d)", ErrOutOfRange, i, s.st.Relation().Len())
	}
	out := AnswerOutcome{Wasted: s.st.Label(i) != Unlabeled}
	err := s.st.apply(i, l)
	if errors.Is(err, ErrInconsistent) && s.OnConflict == SkipOnConflict {
		out.Conflict = true
		return out, nil
	}
	if err != nil {
		return AnswerOutcome{}, err
	}
	if len(s.st.implied) > 0 {
		out.NewlyImplied = s.st.implied
	}
	s.deferred = nil
	s.redeferrals = 0
	return out, nil
}

// Skip defers the signature class of tuple i: Propose stops offering
// tuples of that class until a new label or batch of arrivals clears
// the skip set, or every informative class is skipped and a re-offer
// round starts. Skipping is the caller saying "I don't know" — the
// engine maps labeler abstentions here. Skipping a converged session
// fails with ErrSessionDone: there is nothing left to defer.
func (s *Session) Skip(i int) error {
	if i < 0 || i >= s.st.Relation().Len() {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrOutOfRange, i, s.st.Relation().Len())
	}
	if s.st.Done() {
		return fmt.Errorf("%w: cannot skip tuple %d", ErrSessionDone, i)
	}
	c := s.st.ClassOf(i)
	s.deferred = grow(s.deferred, max(c+1-len(s.deferred), 0))
	s.deferred[c] = true
	return nil
}

// skipped reports whether tuple i's class is in the skip set.
func (s *Session) skipped(i int) bool {
	c := s.st.ClassOf(i)
	return c < len(s.deferred) && s.deferred[c]
}

// Skips returns one representative unlabeled tuple index per
// signature class currently skipped, ascending — the serializable form
// of the skip set. Replaying Skip on each index over an equal state
// reproduces the skip set exactly, which is how the durable session
// store carries deferred classes across a restart. Classes that became
// fully labeled since they were skipped are omitted: they no longer
// influence proposal routing.
func (s *Session) Skips() []int {
	var out []int
	for c, skipped := range s.deferred {
		if !skipped {
			continue
		}
		for _, i := range s.st.ClassMembers(c) {
			if s.st.Label(int(i)) == Unlabeled {
				out = append(out, int(i))
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// Append streams a parsed batch into the live session and clears the
// skip set — arrivals may make skipped classes worth re-asking about.
// The instance adopts b as it is (State.AppendBatch), so the caller
// must not use b afterwards. It returns the indices of arrivals whose
// labels were implied on landing, as a view valid until the next
// answer or append. A wrong-arity batch fails whole with
// ErrSchemaMismatch, leaving the state untouched.
func (s *Session) Append(b *relation.Batch) (newlyImplied []int, err error) {
	newly, err := s.st.AppendBatch(b)
	if err != nil {
		return nil, err
	}
	if b.Len() > 0 {
		s.deferred = nil
	}
	return newly, nil
}
