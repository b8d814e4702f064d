package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/store"
)

// This file is the bridge between the request handlers and the
// durable store: event construction after each in-memory apply,
// snapshot construction (the session-format-v2 file wrapped in the
// store envelope), and the startup replay that turns snapshots + WAL
// suffixes back into live sessions. Replay goes through the code paths
// the live request took (replayEvent), so recovery can never drift
// from the inference semantics, and it
// never touches the request metrics: replayed labels and appends are
// not new traffic (the ingest counters would otherwise double-count
// every restart and eviction round-trip).

// persists reports whether mutating events have a consumer: a durable
// store that logs them or a follower they are shipped to. Without one,
// persistence is a no-op and callers need not build the event at all.
func (s *Server) persists() bool { return s.durable || s.shipperFor() != nil }

// persistEvent durably logs one mutating event for a session. The
// caller holds the session's write lock, which makes the (in-memory
// apply, AppendEvent) pair atomic with respect to snapshots: a
// snapshot can never record a sequence number whose event is missing
// from the state it captures.
//
// A non-nil return is a CodeInternal *jim.Error: the event could not
// be made durable. The in-memory apply stands, so the client knows the
// answer was taken, but is told the service is degraded rather than
// being handed a silent durability gap. Transport-agnostic — the HTTP
// handlers map the error through writeTypedError, the wire handler
// through its error frame.
func (s *Server) persistEvent(id string, ls *liveSession, ev store.Event) error {
	if !s.persists() {
		return nil
	}
	if ls.deleted {
		// The session was DELETEd while this request waited on the
		// write lock; logging now would re-create the compacted
		// directory. The in-memory apply hit a zombie that is about to
		// be garbage collected — nothing to persist.
		return nil
	}
	if s.durable {
		if err := s.cfg.Store.AppendEvent(id, ev); err != nil {
			s.persist.errors.Add(1)
			return &jim.Error{Code: jim.CodeInternal, Message: fmt.Sprintf("persisting event: %v", err)}
		}
		s.persist.events.Add(1)
		if n := ls.walEvents.Add(1); n >= int64(s.snapshotEvery) {
			// Size half of the snapshot policy: fold the WAL into a fresh
			// snapshot — asynchronously, off the request path. The caller
			// holds the session's write lock; folding inline would make the
			// unlucky SnapshotEvery-th request pay a full-state encode plus
			// snapshot IO (and every subsequent request re-pay it when the
			// store is failing). At most one fold per session in flight; it
			// takes the read lock, so it starts after this request ends.
			// Failure is not the client's problem — the event itself is
			// durable; the log just stays long until the next trigger.
			if ls.snapInFlight.CompareAndSwap(false, true) {
				go func() {
					defer ls.snapInFlight.Store(false)
					if err := s.snapshotSession(id, ls); err != nil {
						s.persist.errors.Add(1)
					}
				}()
			}
		}
	}
	if ship := s.shipperFor(); ship != nil {
		// Ship after the durable append so the follower can never hold
		// an event its owner lost. The caller's locks (write lock, or
		// read lock + pickMu on the clear path) serialize this per
		// session, so enqueue order matches sequence order.
		ev.Seq = ls.replSeq.Add(1)
		ship.ShipEvent(id, ev)
	}
	return nil
}

// labelEvent builds the WAL record of one accepted explicit label.
func labelEvent(index int, l jim.Label) store.Event {
	lbl := "-"
	if l == jim.Positive {
		lbl = "+"
	}
	return store.Event{Op: store.OpLabel, Index: index, Label: lbl}
}

// skipEvent builds the WAL record of one skip.
func skipEvent(index int) store.Event {
	return store.Event{Op: store.OpSkip, Index: index}
}

// clearEvent builds the WAL record of a re-offer round (the skip set
// cleared by a proposal that found everything informative skipped).
func clearEvent() store.Event {
	return store.Event{Op: store.OpClear}
}

// appendEvent builds the WAL record of one arrival batch, its rows in
// tagged-value encoding (relation.Batch.AppendTagged) so replay parses
// them exactly.
func appendEvent(b *relation.Batch) store.Event {
	return store.Event{Op: store.OpAppend, Rows: b.AppendTagged(nil)}
}

// buildSnapshot serializes a session into the store envelope: the
// session-format-v2 file plus the run configuration (strategy, seed,
// pinned arrival typing, active skips) the file format does not carry.
// Caller holds ls.mu in either mode AND pickMu: Propose mutates the
// skip set under the read lock, so without pickMu a concurrent /next
// could clear skips between this capture and the snapshot's sequence
// stamping (see withSnapshot).
func buildSnapshot(ls *liveSession) (store.Snapshot, error) {
	var buf bytes.Buffer
	meta := session.Meta{Strategy: ls.sess.Strategy(), CreatedAt: ls.createdAt}
	if err := session.Save(&buf, ls.sess.State(), meta); err != nil {
		return store.Snapshot{}, err
	}
	return store.Snapshot{
		Strategy:  ls.sess.Strategy(),
		Seed:      ls.seed,
		CreatedAt: ls.createdAt,
		Typing:    ls.sess.Typing().Annotations(),
		Skips:     ls.sess.Core().Skips(),
		Session:   json.RawMessage(bytes.TrimSpace(buf.Bytes())),
	}, nil
}

// purge fences a session that must not survive (an explicit DELETE, a
// failed create) and discards its durable copy. Setting the deleted
// flag under the session's write lock drains in-flight writers first,
// so the Compact below cannot be undone by a late WAL append or
// snapshot re-creating the directory. Failures are counted for
// /stats. ls may be nil when only the on-disk copy exists.
func (s *Server) purge(id string, ls *liveSession) error {
	if !s.persists() {
		return nil
	}
	if ls != nil {
		ls.mu.Lock()
		ls.deleted = true
		ls.mu.Unlock()
	}
	if ship := s.shipperFor(); ship != nil {
		ship.ShipDrop(id)
	}
	if !s.durable {
		return nil
	}
	if err := s.cfg.Store.Compact(id); err != nil {
		s.persist.errors.Add(1)
		return err
	}
	return nil
}

// snapshotSession folds a session's current state into the store and
// ships it to the follower, with the session's read lock and pickMu
// held across the Store.Snapshot call (withSnapshot).
func (s *Server) snapshotSession(id string, ls *liveSession) error {
	err := withSnapshot(ls, func(snap store.Snapshot) error {
		if s.durable {
			if err := s.cfg.Store.Snapshot(id, snap); err != nil {
				return err
			}
			now := s.now().UnixNano()
			ls.walEvents.Store(0)
			ls.lastSnapshot.Store(now)
			s.persist.snapshots.Add(1)
			s.persist.lastSnapshot.Store(now)
		}
		if ship := s.shipperFor(); ship != nil {
			ship.ShipSnapshot(id, snap)
		}
		return nil
	})
	if err == errSessionDeleted {
		return nil // DELETE won the race; do not re-create its state
	}
	return err
}

// errSessionDeleted marks a snapshot capture that lost the race with
// a purge — nothing to store or ship, not a failure.
var errSessionDeleted = errors.New("server: session deleted")

// withSnapshot is the one snapshot capture: it builds ls's snapshot,
// stamped with its replication watermark, and hands it to use, or
// returns errSessionDeleted for a purged session. ls.mu (read) and
// pickMu are held until use returns: the only events appended under a
// read lock are skip clears (handleNext), which also take pickMu, and
// ls.mu excludes the rest — so neither the watermark nor a sequence the
// store stamps inside use can cover an event the capture misses.
func withSnapshot(ls *liveSession, use func(store.Snapshot) error) error {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if ls.deleted {
		return errSessionDeleted
	}
	ls.pickMu.Lock()
	defer ls.pickMu.Unlock()
	snap, err := buildSnapshot(ls)
	if err != nil {
		return err
	}
	snap.Seq = ls.replSeq.Load()
	return use(snap)
}

// SnapshotAll folds every live session into the store — the graceful-
// shutdown path, after the HTTP server has drained, so a clean restart
// replays snapshots only and starts serving immediately. Sessions with
// an empty WAL are skipped: their snapshot is already current.
func (s *Server) SnapshotAll() error {
	if !s.durable {
		return nil
	}
	var errs []error
	s.sessions.forEach(func(id string, ls *liveSession) {
		if ls.walEvents.Load() == 0 {
			return
		}
		if err := s.snapshotSession(id, ls); err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", id, err))
		}
	})
	return errors.Join(errs...)
}

// Restore loads every session the store persisted and rebuilds it as a
// live session: the snapshot's session file loads through session.LoadBytes
// (labels replayed through the core), the envelope's skips re-apply,
// and the WAL suffix replays through the code paths the original
// requests took (replayEvent). It returns how many sessions came back.
//
// Call it once, after NewWith and before serving traffic. Sessions
// that fail to rebuild are reported in the joined error but do not
// block the rest — one corrupt session must not hold the other
// thousands hostage.
//
// Rebuilds fan out across a worker pool: restore is the startup
// critical path (a fleet of sessions replays label-by-label through
// the inference core), and sessions share no state until putRestored
// publishes them — so the decode and replay of each is embarrassingly
// parallel, with only the table insert and id-counter advance serial.
func (s *Server) Restore() (int, error) {
	if !s.durable {
		return 0, nil
	}
	start := s.now()
	// A partially readable store still restores: LoadAll reports
	// per-session casualties in its error while returning everything
	// readable (plus bare entries for the unreadable ids).
	saved, loadErr := s.cfg.Store.LoadAll()
	var errs []error
	if loadErr != nil {
		errs = append(errs, loadErr)
	}
	rebuilt := make([]*liveSession, len(saved))
	rebuildErrs := make([]error, len(saved))
	rebuildOne := func(i int) {
		sv := saved[i]
		if sv.Snapshot == nil && len(sv.Events) == 0 {
			return // unreadable; already reported by LoadAll
		}
		rebuilt[i], rebuildErrs[i] = s.rebuild(sv)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(len(saved), runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(saved) {
					return
				}
				rebuildOne(i)
			}
		}()
	}
	wg.Wait()
	restored := 0
	maxID := int64(0)
	for i, sv := range saved {
		// Every persisted id — restored, corrupt, or remnant — blocks
		// id reuse: a fresh session must never share an id with stale
		// on-disk state, or that state's WAL would replay into it.
		if n, ok := numericID(sv.ID); ok && n > maxID {
			maxID = n
		}
		switch {
		case rebuildErrs[i] != nil:
			errs = append(errs, fmt.Errorf("session %s: %w", sv.ID, rebuildErrs[i]))
		case rebuilt[i] != nil:
			s.sessions.putRestored(sv.ID, rebuilt[i])
			restored++
		}
	}
	if maxID > s.nextID.Load() {
		s.nextID.Store(maxID)
	}
	s.persist.restoreNS.Store(s.now().Sub(start).Nanoseconds())
	return restored, errors.Join(errs...)
}

// rebuild turns one saved session into a live one.
func (s *Server) rebuild(sv store.Saved) (*liveSession, error) {
	if sv.Snapshot == nil {
		return nil, fmt.Errorf("no snapshot on disk (wal-only remnant)")
	}
	st, meta, err := session.LoadBytes(sv.Snapshot.Session)
	if err != nil {
		return nil, err
	}
	name := sv.Snapshot.Strategy
	if name == "" {
		name = meta.Strategy
	}
	ty, err := relation.TypingFromAnnotations(sv.Snapshot.Typing)
	if err != nil {
		return nil, fmt.Errorf("restoring typing: %w", err)
	}
	sess, err := sessionPolicy{name, sv.Snapshot.Seed, ty}.resume(st)
	if err != nil {
		return nil, err
	}
	for _, i := range sv.Snapshot.Skips {
		if err := sess.Skip(i); err != nil {
			return nil, fmt.Errorf("replaying snapshot skip %d: %w", i, err)
		}
	}
	for _, ev := range sv.Events {
		if err := replayEvent(sess, ev); err != nil {
			return nil, fmt.Errorf("replaying event seq %d (%s): %w", ev.Seq, ev.Op, err)
		}
	}
	createdAt := sv.Snapshot.CreatedAt
	if createdAt.IsZero() {
		createdAt = meta.CreatedAt
	}
	if createdAt.IsZero() {
		createdAt = s.now()
	}
	ls := newLiveSession(sess, createdAt, sv.Snapshot.Seed)
	ls.walEvents.Store(int64(len(sv.Events)))
	if len(sv.Events) == 0 {
		ls.lastSnapshot.Store(s.now().UnixNano())
	}
	// A session restored with a WAL suffix keeps lastSnapshot at zero:
	// its durable snapshot is genuinely stale, and the age policy
	// should fold the replayed events at its first tick instead of
	// waiting a fresh SnapshotMaxAge — otherwise a restart loop
	// re-replays the same suffix on every boot.
	ls.touch(s.now())
	return ls, nil
}

// replayEvent applies one WAL event, on restore or to a replica, through
// the code path the original request took: an append decodes into one
// batch the session adopts, as in applyAppend.
func replayEvent(sess *jim.Session, ev store.Event) error {
	switch ev.Op {
	case store.OpLabel:
		l := jim.Negative
		if ev.Label == "+" {
			l = jim.Positive
		}
		_, err := sess.Answer(ev.Index, l)
		return err
	case store.OpSkip:
		return sess.Skip(ev.Index)
	case store.OpClear:
		sess.Core().ClearSkips()
		return nil
	case store.OpAppend:
		b, err := relation.ParseTagged(sess.Relation().Schema(), ev.Rows)
		if err != nil {
			return err
		}
		_, err = sess.Append(b)
		return err
	}
	return fmt.Errorf("unknown op %q", ev.Op)
}

// numericID extracts the numeric suffix of a server-assigned session
// id ("s0042" → 42) so Restore can advance the id counter past every
// restored session.
func numericID(id string) (int64, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
