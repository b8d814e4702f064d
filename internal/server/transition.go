package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// This file moves session ownership between nodes. Every transition is
// built from the same three steps: swapView replaces the membership
// view, adopt moves sessions into this node's live table, and a
// handoff ships sessions to their new owner (shipSessionsTo) and
// releases them here (releaseTo). Failover (failNode), the handoff
// endpoints (handleRejoin, handleRebalance in cluster_http.go) and the
// restarted node's RejoinCluster only combine them.

// swapView moves the membership view through one transition: next
// computes the new view from the current one, and is re-run against
// the newer view whenever a concurrent transition got there first.
// It returns the view now in force.
func (c *clusterState) swapView(next func(*cluster.Membership) (*cluster.Membership, error)) (*cluster.Membership, error) {
	for {
		old := c.membership.Load()
		m, err := next(old)
		if err != nil {
			return nil, err
		}
		if m == old || c.membership.CompareAndSwap(old, m) {
			return m, nil
		}
	}
}

// failNode is the shared core of operator promotion and detector
// auto-failover: mark id failed, adopt every replica the new view
// assigns to us, and retarget the shipper. Idempotent — failing an
// already-failed node adopts nothing new.
func (s *Server) failNode(id string) (*cluster.Membership, int, error) {
	c := s.cluster
	m, err := c.swapView(func(m *cluster.Membership) (*cluster.Membership, error) { return m.Fail(id) })
	if err != nil {
		return nil, 0, err
	}
	adopted := s.adoptReplicas(m)
	// The failure may have changed who our follower is; retarget after
	// adoption so the retarget resync covers the adopted sessions too.
	s.retargetShipper(m)
	c.logf("cluster: %s marked failed, adopted %d sessions", id, adopted)
	return m, adopted, nil
}

// retargetShipper points the replication stream at the follower the
// view m designates, parking it when nobody can receive.
func (s *Server) retargetShipper(m *cluster.Membership) {
	c := s.cluster
	if c.shipper == nil {
		return
	}
	f, _ := m.FollowerOf(c.self.ID) // zero Node, so no target, when nobody is alive
	c.shipper.SetTarget(f.Repl)
}

// adoptReplicas moves every replica the membership view m assigns to
// this node out of the replica set and adopts them. Each replica
// leaves the set under the scan's lock, so two concurrent transitions
// never adopt the same one twice.
func (s *Server) adoptReplicas(m *cluster.Membership) int {
	c := s.cluster
	var hand []handoff
	c.repMu.Lock()
	for id, ls := range c.replicas {
		if m.OwnerID(id) == c.self.ID {
			hand = append(hand, handoff{id, ls})
			delete(c.replicas, id)
		}
	}
	c.repMu.Unlock()
	s.adopt(hand)
	return len(hand)
}

// adopt places sessions this node now owns into the live table: any
// replica of them is dropped, every one is published, and the id counter
// advances past the highest of them before anything touches the disk.
// Routing may already send their requests here, so none may answer
// not_found, and no create may be handed one of their ids, while the
// adoptees wait on the fsync. Only then does a local snapshot
// re-protect each one (persisting it and shipping it onward to our
// follower).
func (s *Server) adopt(hand []handoff) {
	c := s.cluster
	c.repMu.Lock()
	for _, h := range hand {
		delete(c.replicas, h.id)
	}
	c.repMu.Unlock()
	var maxID int64
	for _, h := range hand {
		h.ls.touch(s.now())
		s.sessions.putRestored(h.id, h.ls)
		if n, ok := numericID(h.id); ok && n > maxID {
			maxID = n
		}
	}
	for {
		cur := s.nextID.Load()
		if maxID <= cur || s.nextID.CompareAndSwap(cur, maxID) {
			break
		}
	}
	c.promoted.Add(int64(len(hand)))
	if !s.persists() {
		return
	}
	for _, h := range hand {
		if err := s.snapshotSession(h.id, h.ls); err != nil {
			s.persist.errors.Add(1)
			c.logf("cluster: adopt %s: snapshot: %v", h.id, err)
		}
	}
}

// handoff is one session leaving (or, in adopt, entering) this
// node's live table during an ownership transition.
type handoff struct {
	id string
	ls *liveSession
}

// liveByOwner groups the live sessions that view m assigns to another
// node by that owner, and counts every live session.
func (s *Server) liveByOwner(m *cluster.Membership) (map[string][]handoff, int) {
	byOwner := map[string][]handoff{}
	total := 0
	s.sessions.forEach(func(id string, ls *liveSession) {
		total++
		if own := m.OwnerID(id); own != s.cluster.self.ID {
			byOwner[own] = append(byOwner[own], handoff{id, ls})
		}
	})
	return byOwner, total
}

// shipSessionsTo streams a snapshot of each session to the target
// node's repl listener through a dedicated shipper and waits for the
// sync barrier — the drain path pointed at an arbitrary peer instead
// of our designated follower. A nil return means every session in
// hand arrived, so the caller may release them all; a session deleted
// mid-handoff has nothing to move and counts as arrived.
func (s *Server) shipSessionsTo(ctx context.Context, n cluster.Node, hand []handoff) error {
	tmp := cluster.NewShipper(cluster.ShipperOptions{
		Self:   s.cluster.self.ID,
		Target: n.Repl,
		Logf:   s.cluster.logf,
	})
	defer tmp.Close()
	for _, h := range hand {
		snap, err := captureSnapshot(h.ls)
		if errors.Is(err, errSessionDeleted) {
			continue
		}
		if err != nil {
			return fmt.Errorf("snapshot of %s: %w", h.id, err)
		}
		tmp.ShipSnapshot(h.id, snap)
	}
	return syncWithin(ctx, tmp, 10*time.Second)
}

// releaseTo finishes handing hand to owner once view m routes it
// there: each session leaves the live table (demoted, not deleted —
// it lives on under the new owner), our follower is told to drop its
// replica, and the local durable copy is compacted away so a future
// restart of this node does not resurrect stale state. When this node
// is the new owner's designated follower, the still-warm state stays
// in the replica set instead — the new owner's stream keeps it fresh
// from here on. A write racing the handoff can recreate a WAL remnant
// after the compaction; restore logs and skips those.
func (s *Server) releaseTo(m *cluster.Membership, owner string, hand []handoff) {
	c := s.cluster
	f, ok := m.FollowerOf(owner)
	keep := ok && f.ID == c.self.ID
	for _, h := range hand {
		s.sessions.demote(h.id)
		if keep {
			c.repMu.Lock()
			c.replicas[h.id] = h.ls
			c.repMu.Unlock()
		}
		if c.shipper != nil {
			c.shipper.ShipDrop(h.id)
		}
		if s.durable {
			if err := s.cfg.Store.Compact(h.id); err != nil {
				s.persist.errors.Add(1)
				c.logf("cluster: release %s to %s: compact: %v", h.id, owner, err)
			}
		}
	}
}

// rejoinProgress is the rejoin state machine surfaced in
// GET /v1/cluster while a restarted node reclaims its range.
type rejoinProgress struct {
	Node      string `json:"node"`
	Phase     string `json:"phase"` // syncing | reclaiming | done | failed
	Reclaimed int    `json:"reclaimed_sessions,omitempty"`
	Error     string `json:"error,omitempty"`
}

// RejoinReport summarizes a RejoinCluster call.
type RejoinReport struct {
	// Rejoined is false when no peer marked this node failed — a
	// fresh cluster, or a restart quicker than the lease.
	Rejoined bool `json:"rejoined"`
	// Holder is the node that held this node's range.
	Holder string `json:"holder,omitempty"`
	// Reclaimed counts sessions adopted back from the holder.
	Reclaimed int `json:"reclaimed_sessions"`
	// PeersNotified counts survivors whose views converged.
	PeersNotified int `json:"peers_notified"`
}

// RejoinCluster is the restarted node's side of dead-node rejoin. It
// asks the peers whether any of them marked this node failed; if so
// it adopts that view of the world (marking ITSELF failed, so the
// incoming range lands in the replica set instead of colliding with
// stale restored state), drops its stale local copy of the range,
// asks the promoted holder to transfer the range back, reclaims it
// with a Rejoin view flip plus replica adoption, and finally
// broadcasts the rejoin to the remaining survivors. Call it after
// EnableCluster with the repl listener already serving — the holder
// ships the range into it. Safe to call when nothing is wrong: it
// returns a zero report.
func (s *Server) RejoinCluster(ctx context.Context) (*RejoinReport, error) {
	c := s.cluster
	if c == nil {
		return nil, errors.New("server: not in cluster mode")
	}
	rep := &RejoinReport{}
	var remoteFailed map[string]string
	for _, n := range c.membership.Load().Members() {
		if n.ID == c.self.ID {
			continue
		}
		view, err := c.fetchView(ctx, n)
		if err != nil {
			c.logf("cluster: rejoin: reading the view of %s: %v", n.ID, err)
			continue
		}
		if _, dead := view.Failed[c.self.ID]; dead {
			remoteFailed = view.Failed
			break
		}
	}
	if remoteFailed == nil {
		return rep, nil
	}
	c.rejoinState.Store(&rejoinProgress{Node: c.self.ID, Phase: "syncing"})
	fail := func(err error) (*RejoinReport, error) {
		c.rejoinState.Store(&rejoinProgress{Node: c.self.ID, Phase: "failed", Error: err.Error()})
		return nil, err
	}
	// Adopt the survivors' view — with ourselves failed in it, the
	// incoming range is applied as replicas, not rejected as stale
	// shadowing of the sessions we restored from disk.
	m, err := c.swapView(func(m *cluster.Membership) (*cluster.Membership, error) { return m.ImportFailed(remoteFailed) })
	if err != nil {
		return fail(fmt.Errorf("server: rejoin: %w", err))
	}
	// Our restored copy of the range is stale misinformation — the
	// promoted holder has the authoritative state (including deletes
	// that happened while we were down). Drop table and disk copies
	// before the fresh range arrives.
	s.sessions.forEach(func(id string, ls *liveSession) {
		if s.ownsID(id) {
			return
		}
		s.sessions.demote(id)
		if s.durable {
			if err := s.cfg.Store.Compact(id); err != nil {
				s.persist.errors.Add(1)
				c.logf("cluster: rejoin: dropping stale %s: compact: %v", id, err)
			}
		}
	})
	// Chase our failed entry to the live node actually holding the
	// range today (the promoted follower may itself have died).
	holderID := remoteFailed[c.self.ID]
	for i := 0; i <= len(remoteFailed); i++ {
		next, dead := remoteFailed[holderID]
		if !dead {
			break
		}
		holderID = next
	}
	holder, ok := m.Node(holderID)
	if !ok || holder.HTTP == "" {
		return fail(fmt.Errorf("server: rejoin: no reachable holder for our range (chain ends at %q)", holderID))
	}
	rep.Holder = holderID
	if err := c.postRejoin(ctx, holder, c.self.ID); err != nil {
		return fail(fmt.Errorf("server: rejoin via %s: %w", holderID, err))
	}
	rep.PeersNotified++
	c.rejoinState.Store(&rejoinProgress{Node: c.self.ID, Phase: "reclaiming"})
	m, err = c.swapView(func(m *cluster.Membership) (*cluster.Membership, error) { return m.Rejoin(c.self.ID) })
	if err != nil {
		return fail(fmt.Errorf("server: rejoin: %w", err))
	}
	rep.Reclaimed = s.adoptReplicas(m)
	s.retargetShipper(m)
	// Converge the remaining survivors; their handlers transfer any
	// strays of our range and flip their views.
	failed := m.Failed()
	for _, n := range m.Members() {
		if n.ID == c.self.ID || n.ID == holderID {
			continue
		}
		if _, dead := failed[n.ID]; dead {
			continue
		}
		if err := c.postRejoin(ctx, n, c.self.ID); err != nil {
			c.logf("cluster: rejoin broadcast to %s: %v", n.ID, err)
			continue
		}
		rep.PeersNotified++
	}
	rep.Rejoined = true
	c.rejoinState.Store(&rejoinProgress{Node: c.self.ID, Phase: "done", Reclaimed: rep.Reclaimed})
	c.logf("cluster: rejoined via %s, reclaimed %d sessions", holderID, rep.Reclaimed)
	return rep, nil
}
