package server

import (
	"errors"
	"fmt"
	"strings"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/sqlgen"
	"repro/internal/wire"
)

// This file is the transport-agnostic session-apply layer: every
// dialogue rule the service enforces — session policy, the proposal
// switch, answers, the empty-append rule, the result SQL — expressed
// once as methods returning typed errors from the jim taxonomy. The /v1
// HTTP handlers and the binary wire protocol (internal/wire) only
// decode, call one of these, and encode — one code path, two encodings
// — so the transports cannot drift: the differential tests hold them
// tuple-for-tuple equal, and this layer is why that holds by
// construction for everything below the codec.

// sessionPolicy is the service's session policy, shared by every way
// a session comes to life (create, import, restore): the strategy (""
// means the default), the strategy seed, the pinned arrival typing (nil
// means per-cell inference), and unlimited re-offers — an interactive
// client explicitly skipped and can only be asked again. It travels as
// one value; resume builds the options in the one call that consumes
// them, where they stay on the stack.
type sessionPolicy struct {
	strategy string
	seed     int64
	typing   *relation.Typing
}

// resume opens a session over st under the policy.
func (p sessionPolicy) resume(st *jim.State) (*jim.Session, error) {
	name := p.strategy
	if name == "" {
		name = jim.DefaultStrategy
	}
	return jim.ResumeSession(st,
		jim.WithStrategy(name),
		jim.WithSeed(p.seed),
		jim.WithTyping(p.typing),
		jim.WithRedeferLimit(-1))
}

// create opens a session over a CSV instance and registers it. The
// creation typing is always pinned — an all-inference typing included —
// so arrival parsing never honors an append body's own header
// annotations: the same cells parse the same way whatever encoding or
// header they arrive with.
func (s *Server) create(csv, strategyName string, seed int64) (string, summary, error) {
	if strings.TrimSpace(csv) == "" {
		return "", summary{}, &jim.Error{Code: jim.CodeBadInput, Message: "server: empty csv"}
	}
	rel, typing, err := relation.ReadCSVString(csv, relation.CSVOptions{})
	if err != nil {
		return "", summary{}, &jim.Error{Code: jim.CodeBadInput, Message: err.Error()}
	}
	st, err := jim.NewState(rel)
	if err != nil {
		return "", summary{}, err
	}
	sess, err := sessionPolicy{strategyName, seed, typing}.resume(st)
	if err != nil {
		return "", summary{}, err
	}
	return s.register(newLiveSession(sess, s.now(), seed))
}

// lookup resolves a session id and touches its idle clock. The error
// is CodeNotFound.
func (s *Server) lookup(id string) (*liveSession, error) {
	ls, ok := s.sessions.get(id)
	if !ok {
		return nil, &jim.Error{Code: jim.CodeNotFound, Message: fmt.Sprintf("no session %q", id)}
	}
	ls.touch(s.now())
	return ls, nil
}

// register inserts a fresh session under a new id, enforcing the cap.
// When at the cap, expired sessions are swept first so a full table of
// abandoned sessions does not lock out live users. With a durable
// store, the session's initial snapshot is written before the id is
// returned — a created session is a recoverable session. The summary
// is captured before the session is published: ids are predictable, so
// a concurrent writer could mutate it immediately.
func (s *Server) register(ls *liveSession) (string, summary, error) {
	ls.touch(s.now())
	// allocID skips ids the cluster ring assigns to other nodes, so
	// every node draws from a disjoint id space and a create is always
	// served locally (single-node: first id wins immediately).
	id := s.allocID()
	sum := summarize(id, ls)
	err := s.sessions.put(id, ls, s.cfg.MaxSessions)
	if errors.Is(err, errSessionCap) && s.sweepQuick() > 0 {
		err = s.sessions.put(id, ls, s.cfg.MaxSessions)
	}
	if err != nil {
		s.sessions.rejected.Add(1)
		return "", summary{}, &jim.Error{
			Code:    jim.CodeTooManySessions,
			Message: fmt.Sprintf("%v (%d active, max %d)", err, s.sessions.active.Load(), s.cfg.MaxSessions),
		}
	}
	if s.persists() {
		if err := s.snapshotSession(id, ls); err != nil {
			// A session the store cannot hold must not exist: undo the
			// insert (rollback, so a failed create never reads as
			// created+deleted churn in /stats), and purge — ids are
			// predictable, so a concurrent request may already have
			// logged an event into what would otherwise survive as a
			// WAL-only remnant poisoning every future Restore.
			s.sessions.rollback(id)
			_ = s.purge(id, ls)
			s.persist.errors.Add(1)
			return "", summary{}, &jim.Error{
				Code:    jim.CodeInternal,
				Message: fmt.Sprintf("persisting session: %v", err),
			}
		}
	}
	return id, sum, nil
}

// applyAnswer applies one answer or skip to the session and persists
// its event — the shared apply step of POST /label, POST /step, and
// the wire step op. label is a defined wire.Label: the HTTP codec
// (parseLabel) and the wire decoder reject anything else. It returns
// the newly implied tuple indices (nil for a skip) as a view valid
// until the session's next answer or append (jim.Session.Answer), so a
// transport that only counts them allocates nothing for them. The
// caller holds the session's write lock.
func (s *Server) applyAnswer(id string, ls *liveSession, index int, label wire.Label) ([]int, error) {
	if label == wire.Skip {
		if err := ls.sess.Skip(index); err != nil {
			return nil, err
		}
		return nil, s.persistEvent(id, ls, skipEvent(index))
	}
	l := jim.Negative
	if label == wire.Positive {
		l = jim.Positive
	}
	out, err := ls.sess.Answer(index, l)
	if err != nil {
		return nil, err
	}
	if err := s.persistEvent(id, ls, labelEvent(index, l)); err != nil {
		return nil, err
	}
	s.metrics.labels.Add(1)
	return out.NewlyImplied, nil
}

// propose is the proposal half of every dialogue step, appending to
// dst: k = 0 proposes nothing, k = 1 the single proposal routed around
// skipped classes (proposeOne), k > 1 the ranked batch (rankK). The
// caller holds ls.mu in either mode.
func (s *Server) propose(id string, ls *liveSession, k int, dst []int) ([]int, error) {
	switch {
	case k == 1:
		i, ok, err := s.proposeOne(id, ls)
		if ok {
			dst = append(dst, i)
		}
		return dst, err
	case k > 1:
		indices, err := s.rankK(ls, k)
		return append(dst, indices...), err
	}
	return dst, nil
}

// proposeOne picks the next tuple to ask about, routing around skipped
// classes. ok=false means the dialogue is over (or everything left is
// deferred past the re-offer budget). The caller holds ls.mu in either
// mode; pickMu is taken here.
//
// A proposal that starts a re-offer round mutates the skip set — the
// one state change a read path makes — and must reach the WAL, or
// replayed skips would accumulate onto a set the live session had
// cleared and recovery would propose different tuples. The clear and
// its event are logged under pickMu as one unit, so a concurrent
// snapshot (which holds pickMu across capture and sequence stamping)
// sees either neither or both; skip events themselves take the write
// lock, which excludes read-locked callers.
func (s *Server) proposeOne(id string, ls *liveSession) (int, bool, error) {
	ls.pickMu.Lock()
	defer ls.pickMu.Unlock()
	clearsBefore := ls.sess.Core().SkipClears()
	i, ok := ls.sess.Propose()
	if ls.sess.Core().SkipClears() != clearsBefore {
		if err := s.persistEvent(id, ls, clearEvent()); err != nil {
			return 0, false, err
		}
	}
	return i, ok, nil
}

// rankK returns the k most informative tuple indices from the ranking
// path (unlike proposeOne, skips are not routed around). The caller
// holds ls.mu in either mode; pickMu is taken here.
func (s *Server) rankK(ls *liveSession, k int) ([]int, error) {
	ls.pickMu.Lock()
	defer ls.pickMu.Unlock()
	return ls.sess.TopK(k)
}

// applyAppend streams a parsed arrival batch into the session and
// persists it. The session adopts b, so the caller must not use it
// afterwards. The returned indices are a view valid until the
// session's next answer or append (jim.Session.Append). The
// caller holds the session's write lock. An empty batch (a header-only
// CSV, an empty row list) carries no arrivals and fails without metric,
// skip-state or WAL side effects. The batch's event — every cell
// tagged — is built only when something stores it: a mem-store node
// without a follower builds none.
func (s *Server) applyAppend(id string, ls *liveSession, b *relation.Batch) ([]int, error) {
	if b.Len() == 0 {
		return nil, &jim.Error{Code: jim.CodeBadInput, Message: "empty append: no tuples in body"}
	}
	newly, err := ls.sess.Append(b)
	if err != nil {
		return nil, err
	}
	if s.persists() {
		if err := s.persistEvent(id, ls, appendEvent(b)); err != nil {
			return nil, err
		}
	}
	s.metrics.appends.Add(1)
	s.metrics.tuplesAppended.Add(int64(b.Len()))
	return newly, nil
}

// result reads the inferred query: the predicate and its SQL. The
// HTTP codec adds atoms and the certainty panel from the returned
// predicate. The caller holds ls.mu in either mode.
func result(ls *liveSession) (wire.ResultData, jim.Predicate, error) {
	q := ls.sess.Result()
	sql, err := sqlgen.SelectSQL("instance", ls.sess.Relation().Schema(), q)
	if err != nil {
		return wire.ResultData{}, q, &jim.Error{Code: jim.CodeInternal, Message: err.Error()}
	}
	return wire.ResultData{Done: ls.sess.Done(), Predicate: q.String(), SQL: sql}, q, nil
}

// deleteSession drops a session and discards its durable copy. The
// error is CodeNotFound when the id names nothing reachable, or
// CodeInternal when the durable discard failed (an orphan that would
// resurrect on restart — reported, not swallowed).
func (s *Server) deleteSession(id string) error {
	ls, ok := s.sessions.get(id)
	if !ok || !s.sessions.delete(id) {
		// Not in RAM — but with a durable store the id may name a
		// TTL-demoted session: mid-demotion (fence it so the pending
		// demotion snapshot cannot re-create what we are about to
		// discard) or fully parked on disk. DELETE means gone either
		// way; garbage ids (not the server's own shape) have nothing
		// to purge. The result stays not_found — the session was
		// already unreachable — and purge failures surface via
		// persist_errors.
		if s.persists() {
			switch {
			case ok:
				// get saw it but a sweep raced the delete; we still
				// hold the liveSession, so fence it — an async
				// size-policy snapshot may be in flight.
				_ = s.purge(id, ls)
			default:
				if v, mid := s.demoting.Load(id); mid {
					_ = s.purge(id, v.(*liveSession))
				} else if _, serverID := numericID(id); serverID {
					_ = s.purge(id, nil)
				}
			}
		}
		return &jim.Error{Code: jim.CodeNotFound, Message: fmt.Sprintf("no session %q", id)}
	}
	// An explicit delete discards the durable copy too — unlike
	// eviction, which demotes the session to disk.
	if err := s.purge(id, ls); err != nil {
		return &jim.Error{Code: jim.CodeInternal, Message: fmt.Sprintf("discarding persisted session: %v", err)}
	}
	return nil
}
