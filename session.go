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

// WithTyping pins the per-column parsing rules ParseRows and ParseCSV
// parse arrival batches under, normally the typing of the CSV the
// session was created from (ReadCSVTyped). Without it, cells of
// streamed-in rows parse by per-cell inference.
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
//
// Outcome.NewlyImplied is a view of session-owned scratch, valid until
// the next Answer or Append; a caller that keeps the list clones it.
func (s *Session) Answer(index int, label Label) (AnswerOutcome, error) {
	if !label.IsExplicit() {
		return AnswerOutcome{}, newError(CodeBadInput, nil, "Answer requires an explicit label, got %v", label)
	}
	out, err := s.sess.Answer(index, label)
	return out, wrapCoreErr(err)
}

// Skip defers the signature class of the tuple at index: Propose stops
// offering it until a new label or arrival batch clears the skip set,
// or every informative class is skipped and a re-offer round starts.
// Skipping a converged session fails with CodeSessionDone.
func (s *Session) Skip(index int) error { return wrapCoreErr(s.sess.Skip(index)) }

// Append streams a parsed batch (ParseRows, ParseCSV) into the live
// instance, which adopts it: the caller must not use b afterwards.
// Arrivals are classified against the current hypothesis the moment
// they land, and the indices of arrivals whose labels were implied on
// arrival are returned, as a view valid until the next Answer or
// Append. A batch that does not fit the schema fails whole with
// CodeSchemaMismatch, leaving the session untouched.
func (s *Session) Append(b *Batch) (newlyImplied []int, err error) {
	newly, err := s.sess.Append(b)
	return newly, wrapCoreErr(err)
}

// ParseRows parses raw string rows into a batch under the session's
// pinned typing, without touching the state: the decode half of a
// streaming append. Rows whose cell count does not match the schema
// fail with CodeSchemaMismatch; unparsable cells with CodeBadInput.
// It reads only the session's immutable schema and typing, so it may
// run concurrently with the session's other methods.
//
// Nothing returned points into rows, so they may be views into a
// buffer the caller reuses.
func (s *Session) ParseRows(rows [][]string) (*Batch, error) {
	b, err := relation.ParseRows(s.Relation().Schema(), s.typing, rows)
	switch {
	case errors.Is(err, relation.ErrRowWidth):
		return nil, newError(CodeSchemaMismatch, err, "%v", err)
	case err != nil:
		return nil, newError(CodeBadInput, err, "%v", err)
	}
	return b, nil
}

// ParseCSV parses a CSV arrival payload (header included) into a batch
// under the session's pinned typing, without touching the state. The
// header must carry the session schema exactly; mismatches fail with
// CodeSchemaMismatch, unparsable payloads with CodeBadInput. Like
// ParseRows, it may run concurrently with the session's other methods.
func (s *Session) ParseCSV(csv string) (*Batch, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, newError(CodeBadInput, nil, "empty csv")
	}
	schema := s.Relation().Schema()
	arrivals, _, err := relation.ReadCSVString(csv, relation.CSVOptions{Typing: s.typing})
	if errors.Is(err, relation.ErrTypingMismatch) {
		// Column-count drift from the session schema: same contract as
		// any other schema mismatch.
		return nil, newError(CodeSchemaMismatch, err, "%v", err)
	}
	if err != nil {
		return nil, newError(CodeBadInput, err, "%v", err)
	}
	if !arrivals.Schema().Equal(schema) {
		return nil, newError(CodeSchemaMismatch, nil,
			"arrival schema %v does not match session schema %v", arrivals.Schema(), schema)
	}
	// Hand over the one batch ReadCSVString parsed, arrivals' only
	// chunk (none for a header-only payload).
	var b *relation.Batch
	arrivals.EachBatch(func(_ int, c *relation.Batch) { b = c })
	if b == nil {
		b, _ = relation.ParseRows(schema, s.typing, nil)
	}
	return b, nil
}

// Explain justifies the current label of the tuple at index.
func (s *Session) Explain(index int) (Explanation, error) {
	e, err := s.sess.Explain(index)
	return e, wrapCoreErr(err)
}

// Core returns the underlying core session, for the skip-set hooks a
// durable transport persists (Skips, SkipClears, ClearSkips).
func (s *Session) Core() *core.Session { return s.sess }
