// Pull-based session API: the paper's Figure 2 dialogue as an object
// every transport shares. A Session proposes tuples; the caller
// answers, skips, or streams new tuples in, and reads the running
// result — the CLI, the HTTP server, and library users all program
// against this one surface, so proposal routing, conflict policy, and
// arrival parsing live in exactly one place.
package jim

import (
	"errors"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/strategy"
)

// DefaultStrategy is the strategy a session uses when none is chosen.
const DefaultStrategy = "lookahead-maxmin"

// sessionConfig collects the functional options of NewSession.
type sessionConfig struct {
	strategyName string
	picker       KPicker
	seed         int64
	conflict     ConflictPolicy
	typing       *Typing
	redeferLimit int
}

// SessionOption customizes a session at creation.
type SessionOption func(*sessionConfig) error

// WithStrategy selects the question strategy by name (see Strategies).
func WithStrategy(name string) SessionOption {
	return func(c *sessionConfig) error {
		if name == "" {
			return newError(CodeBadInput, nil, "empty strategy name")
		}
		c.strategyName = name
		return nil
	}
}

// WithPicker installs a custom strategy implementation, overriding
// WithStrategy. The picker must not be shared across sessions.
func WithPicker(p KPicker) SessionOption {
	return func(c *sessionConfig) error {
		if p == nil {
			return newError(CodeBadInput, nil, "nil picker")
		}
		c.picker = p
		return nil
	}
}

// WithSeed seeds the randomized strategies; deterministic strategies
// ignore it.
func WithSeed(seed int64) SessionOption {
	return func(c *sessionConfig) error { c.seed = seed; return nil }
}

// WithConflictPolicy decides what Answer does with a label that
// contradicts earlier ones: fail (default) or keep the implied label
// and report a conflict (the noisy-crowd setting).
func WithConflictPolicy(p ConflictPolicy) SessionOption {
	return func(c *sessionConfig) error {
		if p != FailOnConflict && p != SkipOnConflict {
			return newError(CodeBadInput, nil, "unknown conflict policy %d", p)
		}
		c.conflict = p
		return nil
	}
}

// WithTyping pins the per-column parsing rules used by ParseRows and
// ParseCSV, normally the typing of the CSV the session was created
// from (ReadCSVTyped). Without it, cells of streamed-in rows parse by
// per-cell inference.
func WithTyping(t *Typing) SessionOption {
	return func(c *sessionConfig) error { c.typing = t; return nil }
}

// WithRedeferLimit bounds how many times Propose re-offers tuples
// whose classes were all skipped, between answers: 0 keeps the default
// of 3, negative means unlimited (interactive transports, where the
// client explicitly skipped and can only be asked again).
func WithRedeferLimit(n int) SessionOption {
	return func(c *sessionConfig) error { c.redeferLimit = n; return nil }
}

// Session is the transport-agnostic interactive surface of JIM. All
// methods report failures as *Error with a stable code. A Session is
// not safe for concurrent use; transports that share one across
// goroutines (the HTTP server) serialize access themselves.
type Session struct {
	sess         *core.Session
	strategyName string
	typing       *relation.Typing
}

// NewSession opens an inference session over a denormalized instance.
// The session takes ownership of the relation (it grows under Append);
// callers must not mutate or share it.
func NewSession(rel *Relation, opts ...SessionOption) (*Session, error) {
	st, err := core.NewState(rel)
	if err != nil {
		return nil, wrapCoreErr(err)
	}
	return ResumeSession(st, opts...)
}

// ResumeSession opens a session over an existing inference state —
// one restored from a session file, or pre-seeded with labels.
func ResumeSession(st *State, opts ...SessionOption) (*Session, error) {
	cfg := sessionConfig{strategyName: DefaultStrategy}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	picker := cfg.picker
	if picker == nil {
		var err error
		picker, err = strategy.ByName(cfg.strategyName, cfg.seed)
		if err != nil {
			return nil, wrapCoreErr(err)
		}
	}
	typing := cfg.typing
	if typing == nil {
		typing = relation.InferenceTyping(st.Relation().Schema().Len())
	}
	sess := core.NewSession(st, picker)
	sess.OnConflict = cfg.conflict
	sess.RedeferLimit = cfg.redeferLimit
	return &Session{sess: sess, strategyName: picker.Name(), typing: typing}, nil
}

// State exposes the underlying inference state.
func (s *Session) State() *State { return s.sess.State() }

// Relation returns the instance being labeled.
func (s *Session) Relation() *Relation { return s.sess.State().Relation() }

// Strategy returns the session's strategy name.
func (s *Session) Strategy() string { return s.strategyName }

// Typing returns the pinned per-column parsing rules for arrivals.
func (s *Session) Typing() *Typing { return s.typing }

// Done reports convergence: no informative tuple remains.
func (s *Session) Done() bool { return s.sess.Done() }

// Result returns the canonical inferred query M_P — the best
// hypothesis so far mid-session, the answer at convergence.
func (s *Session) Result() Predicate { return s.sess.Result() }

// Progress returns the labeling progress summary.
func (s *Session) Progress() Progress { return s.sess.Progress() }

// Propose returns the next informative tuple to ask about, routing
// around skipped classes; ok=false means convergence (or an exhausted
// re-offer budget with every remaining class skipped).
func (s *Session) Propose() (index int, ok bool) { return s.sess.Propose() }

// TopK returns the k most informative tuples, best first. The result
// is the caller's to keep: the strategy-owned ranking buffer is copied
// here, at the public boundary, so the hot path underneath stays
// allocation-free.
func (s *Session) TopK(k int) ([]int, error) {
	out, err := s.sess.TopK(k)
	if err != nil {
		return nil, newError(CodeBadInput, err, "%v", err)
	}
	return append([]int(nil), out...), nil
}

// Answer records an explicit label for the tuple at index and returns
// what it implied. Failures carry CodeInconsistent, CodeAlreadyLabeled,
// or CodeOutOfRange; under SkipOnConflict an inconsistent label is
// reported as Outcome.Conflict instead of an error. Consistently
// labeling an uninformative tuple is allowed (it pins an implied label
// down explicitly) and reports Outcome.Wasted.
func (s *Session) Answer(index int, label Label) (AnswerOutcome, error) {
	if !label.IsExplicit() {
		return AnswerOutcome{}, newError(CodeBadInput, nil, "Answer requires an explicit label, got %v", label)
	}
	out, err := s.sess.Answer(index, label)
	if err != nil {
		return AnswerOutcome{}, wrapCoreErr(err)
	}
	return out, nil
}

// Skip defers the signature class of the tuple at index: Propose stops
// offering it until a new label or arrival batch clears the skip set,
// or every informative class is skipped and a re-offer round starts.
// Skipping a converged session fails with CodeSessionDone.
func (s *Session) Skip(index int) error {
	if err := s.sess.Skip(index); err != nil {
		return wrapCoreErr(err)
	}
	return nil
}

// Append streams new tuples into the live instance; arrivals are
// classified against the current hypothesis the moment they land, and
// the indices of arrivals whose labels were implied on arrival are
// returned. A batch that does not fit the schema fails whole with
// CodeSchemaMismatch, leaving the session untouched.
func (s *Session) Append(tuples []Tuple) (newlyImplied []int, err error) {
	newly, err := s.sess.Append(tuples)
	if err != nil {
		return nil, wrapCoreErr(err)
	}
	return newly, nil
}

// ParseRows parses raw string rows into tuples under the session's
// pinned typing, without touching the state: the decode half of a
// streaming append. Rows whose cell count does not match the schema
// fail with CodeSchemaMismatch; unparsable cells with CodeBadInput.
//
// Nothing returned points into rows, so they may be views into a
// buffer the caller reuses. The batch's cells share one backing
// array; each tuple is sliced at full capacity, so appending to one
// tuple copies it instead of overwriting its neighbour.
func (s *Session) ParseRows(rows [][]string) ([]Tuple, error) {
	b, err := relation.ParseRows(s.Relation().Schema(), s.typing, rows)
	switch {
	case errors.Is(err, relation.ErrRowWidth):
		return nil, newError(CodeSchemaMismatch, err, "%v", err)
	case err != nil:
		return nil, newError(CodeBadInput, err, "%v", err)
	}
	return b.Tuples(), nil
}

// ParseCSV parses a CSV arrival payload (header included) into tuples
// under the session's pinned typing, without touching the state. The
// header must carry the session schema exactly; mismatches fail with
// CodeSchemaMismatch, unparsable payloads with CodeBadInput.
func (s *Session) ParseCSV(csv string) ([]Tuple, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, newError(CodeBadInput, nil, "empty csv")
	}
	arrivals, _, err := relation.ReadCSVString(csv, relation.CSVOptions{Typing: s.typing})
	if errors.Is(err, relation.ErrTypingMismatch) {
		// Column-count drift from the session schema: same contract as
		// any other schema mismatch.
		return nil, newError(CodeSchemaMismatch, err, "%v", err)
	}
	if err != nil {
		return nil, newError(CodeBadInput, err, "%v", err)
	}
	if !arrivals.Schema().Equal(s.Relation().Schema()) {
		return nil, newError(CodeSchemaMismatch, nil,
			"arrival schema %v does not match session schema %v", arrivals.Schema(), s.Relation().Schema())
	}
	tuples := make([]Tuple, 0, arrivals.Len())
	arrivals.EachBatch(func(_ int, b *relation.Batch) { tuples = append(tuples, b.Tuples()...) })
	return tuples, nil
}

// Explain justifies the current label of the tuple at index.
func (s *Session) Explain(index int) (Explanation, error) {
	e, err := s.sess.Explain(index)
	if err != nil {
		return Explanation{}, wrapCoreErr(err)
	}
	return e, nil
}

// Core returns the underlying core session, for callers mixing the
// facade with the internal engine packages.
func (s *Session) Core() *core.Session { return s.sess }
