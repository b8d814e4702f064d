package server

import (
	"errors"
	"fmt"

	"repro/internal/store"
)

// This file is the follower side of cluster mode: the cluster.Applier
// methods that keep the replica set warm from a predecessor's stream,
// and the resync that ships this node's own sessions to its follower.

// resyncShip is the shipper's Resync callback: on every (re)connect —
// and after a queue overflow — ship a current snapshot of every live
// session. Runs on the shipper goroutine.
func (s *Server) resyncShip(ship func(id string, snap store.Snapshot)) {
	s.sessions.forEach(func(id string, ls *liveSession) {
		snap, err := captureSnapshot(ls)
		if err != nil {
			if err != errSessionDeleted {
				s.cluster.logf("cluster: resync snapshot %s: %v", id, err)
			}
			return
		}
		ship(id, snap)
	})
}

// captureSnapshot returns one live session's snapshot and its
// replication watermark, captured by withSnapshot so the two agree.
func captureSnapshot(ls *liveSession) (snap store.Snapshot, err error) {
	err = withSnapshot(ls, func(s store.Snapshot) error {
		snap = s
		return nil
	})
	return snap, err
}

// ApplySnapshot implements cluster.Applier: rebuild the shipped
// session through the exact crash-recovery path and (re)place it in
// the replica set. Snapshots always replace — within a stream they
// are captured from current owner state and FIFO-ordered, and a fresh
// stream (owner restart, new replication epoch) must reset the
// watermark rather than be refused by a stale one.
func (s *Server) ApplySnapshot(id string, snap *store.Snapshot) error {
	c := s.cluster
	if c == nil {
		return errors.New("server: not in cluster mode")
	}
	if _, live := s.sessions.get(id); live && s.ownsID(id) {
		// We already own this session (it was adopted); late frames
		// from its dead ex-owner's stream must not shadow it.
		c.rejected.Add(1)
		return nil
	}
	ls, err := s.rebuild(store.Saved{ID: id, Snapshot: snap})
	if err != nil {
		c.rejected.Add(1)
		return fmt.Errorf("rebuilding replica %q: %w", id, err)
	}
	ls.replSeq.Store(snap.Seq)
	if s.ownsID(id) {
		// Shipped state for our own range while nothing is live here:
		// the receive half of a rebalance handoff. Adopt it straight
		// into the live table — no later promotion step will.
		s.adopt([]handoff{{id, ls}})
	} else {
		c.repMu.Lock()
		c.replicas[id] = ls
		c.repMu.Unlock()
	}
	c.appliedSnaps.Add(1)
	return nil
}

// ApplyEvent implements cluster.Applier: replay one shipped WAL event
// into the replica. Events at or below the watermark are resync
// replays and drop silently; an event for an unknown session is
// refused (its snapshot has not arrived — the shipper's next resync
// heals it).
func (s *Server) ApplyEvent(id string, ev store.Event) error {
	c := s.cluster
	if c == nil {
		return errors.New("server: not in cluster mode")
	}
	c.repMu.Lock()
	ls := c.replicas[id]
	c.repMu.Unlock()
	if ls == nil {
		c.rejected.Add(1)
		if _, live := s.sessions.get(id); live && s.ownsID(id) {
			return nil
		}
		return fmt.Errorf("no replica %q (event before snapshot; awaiting resync)", id)
	}
	if ev.Seq <= ls.replSeq.Load() {
		return nil
	}
	ls.mu.Lock()
	err := replayEvent(ls.sess, ev)
	ls.mu.Unlock()
	if err != nil {
		c.rejected.Add(1)
		return fmt.Errorf("applying event seq %d to replica %q: %w", ev.Seq, id, err)
	}
	ls.replSeq.Store(ev.Seq)
	c.applied.Add(1)
	return nil
}

// DropReplica implements cluster.Applier: the owner deleted the
// session.
func (s *Server) DropReplica(id string) error {
	c := s.cluster
	if c == nil {
		return errors.New("server: not in cluster mode")
	}
	c.repMu.Lock()
	delete(c.replicas, id)
	c.repMu.Unlock()
	return nil
}
