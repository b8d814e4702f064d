package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	jim "repro"
	"repro/internal/cluster"
	"repro/internal/store"
)

// This file is the server side of internal/cluster: session ownership
// (consistent-hash routing with 307 redirects or transparent
// proxying), the shipping hooks that stream committed WAL frames to
// the designated follower, the replica set a follower keeps warm, and
// the promotion/drain endpoints that move ownership on node death or
// planned maintenance. A server without EnableCluster behaves exactly
// as before — every hook is nil-guarded.

// ClusterOptions configures EnableCluster.
type ClusterOptions struct {
	// Self is this node's id; it must appear in Peers.
	Self string
	// Peers is the full static peer set (this node included).
	Peers []cluster.Node
	// Vnodes is the ring's virtual-node count; <= 0 means
	// cluster.DefaultVnodes.
	Vnodes int
	// Proxy transparently proxies non-owned requests to the owner
	// instead of answering 307.
	Proxy bool
	// ReplBuffer is the shipper queue capacity; <= 0 means default.
	ReplBuffer int
	Logf       func(format string, args ...any)
	// Lease enables the built-in failure detector: a peer unheard-from
	// for this long is probed directly and, if a quorum of reachable
	// survivors agrees it is gone, automatically failed over — no
	// operator POST /promote. 0 disables the detector (operator-driven
	// failover only).
	Lease time.Duration
	// HeartbeatEvery is the heartbeat period on the outbound repl
	// stream; <= 0 with Lease > 0 defaults to Lease/4.
	HeartbeatEvery time.Duration
	// DetectEvery runs background detection passes on this period;
	// <= 0 with Lease > 0 leaves detection to explicit TickCluster
	// calls (how the chaos harness drives time deterministically).
	DetectEvery time.Duration
	// ProbeTimeout bounds each direct liveness probe (default 1s).
	ProbeTimeout time.Duration
}

// clusterState hangs off Server when cluster mode is on.
type clusterState struct {
	self       cluster.Node
	proxy      bool
	logf       func(format string, args ...any)
	membership atomic.Pointer[cluster.Membership]
	// shipper streams our sessions to the designated follower; nil
	// when no peer can receive replication.
	shipper *cluster.Shipper
	// proxies caches one ReverseProxy per peer (proxy mode).
	proxies sync.Map

	// replicas holds the sessions we follow for other owners — a
	// separate map, NOT the main table, so replicas never appear in
	// listings, never count against the session cap, and never get
	// swept. repMu guards the map and every replica's seq.
	repMu    sync.Mutex
	replicas map[string]*replica

	// detector is the lease failure detector; nil when Lease is 0.
	detector     *cluster.Detector
	lease        time.Duration
	probeTimeout time.Duration
	client       *http.Client
	// rejoinState tracks a rejoin in flight on this node, surfaced in
	// GET /v1/cluster for operators watching the transition.
	rejoinState atomic.Pointer[rejoinProgress]

	promoted     atomic.Int64 // sessions adopted from peers (failover, rejoin, rebalance)
	applied      atomic.Int64 // replication events applied
	appliedSnaps atomic.Int64 // replication snapshots applied
	rejected     atomic.Int64 // replication messages refused
}

// replica is one followed session plus the last replication sequence
// applied to it (the dedup watermark for resync replays).
type replica struct {
	ls  *liveSession
	seq uint64
}

// EnableCluster switches the server into cluster mode. Call it after
// NewWith/Restore and before serving traffic: it is not safe to
// enable on a server already handling requests.
func (s *Server) EnableCluster(opts ClusterOptions) error {
	if s.cluster != nil {
		return errors.New("server: cluster mode already enabled")
	}
	m, err := cluster.NewMembership(opts.Peers, opts.Vnodes)
	if err != nil {
		return err
	}
	self, ok := m.Node(opts.Self)
	if !ok {
		return fmt.Errorf("server: node %q is not in the peer set", opts.Self)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &clusterState{self: self, proxy: opts.Proxy, logf: logf, replicas: map[string]*replica{}}
	c.membership.Store(m)
	c.probeTimeout = opts.ProbeTimeout
	if c.probeTimeout <= 0 {
		c.probeTimeout = time.Second
	}
	c.client = &http.Client{}
	s.cluster = c
	hb := opts.HeartbeatEvery
	if hb <= 0 && opts.Lease > 0 {
		hb = opts.Lease / 4
	}
	if f, ok := m.FollowerOf(self.ID); ok && f.Repl != "" {
		c.shipper = cluster.NewShipper(cluster.ShipperOptions{
			Self:           self.ID,
			Target:         f.Repl,
			Resync:         s.resyncShip,
			Logf:           logf,
			Buffer:         opts.ReplBuffer,
			HeartbeatEvery: hb,
		})
	}
	if opts.Lease > 0 {
		c.lease = opts.Lease
		c.detector = cluster.NewDetector(cluster.DetectorOptions{
			Self:    self.ID,
			Lease:   opts.Lease,
			View:    c.membership.Load,
			Probe:   c.probeNode,
			Confirm: c.confirmVia,
			OnDead: func(id string) {
				if _, _, err := s.failNode(id); err != nil {
					logf("cluster: auto-failover of %s: %v", id, err)
				}
			},
			Now:  s.now,
			Logf: logf,
		})
		if opts.DetectEvery > 0 {
			c.detector.Run(opts.DetectEvery)
		}
	}
	return nil
}

// CloseCluster stops the failure detector and the replication
// shipper. Safe on any server.
func (s *Server) CloseCluster() {
	if s.cluster == nil {
		return
	}
	if s.cluster.detector != nil {
		s.cluster.detector.Close()
	}
	if s.cluster.shipper != nil {
		s.cluster.shipper.Close()
	}
}

// ClusterHeartbeat renews a peer's failure-detector lease; wire it as
// the repl server's Heartbeat hook. No-op without a detector.
func (s *Server) ClusterHeartbeat(from string) {
	if c := s.cluster; c != nil && c.detector != nil {
		c.detector.Heartbeat(from)
	}
}

// TickCluster runs one failure-detection pass and returns the node
// ids confirmed dead this pass (each already failed over). The chaos
// harness calls this under an injected clock; production servers use
// DetectEvery for a background loop instead.
func (s *Server) TickCluster() []string {
	if c := s.cluster; c != nil && c.detector != nil {
		return c.detector.Tick()
	}
	return nil
}

// probeNode is the detector's direct liveness check: does the node
// answer GET /healthz within the probe timeout?
func (c *clusterState) probeNode(n cluster.Node) bool {
	if n.HTTP == "" {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.HTTP+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// confirmVia asks another live peer for a second opinion on a
// suspect, via its GET /v1/cluster/probe endpoint. An error means the
// peer could not be asked (it abstains from the quorum vote).
func (c *clusterState) confirmVia(peer cluster.Node, suspect string) (bool, error) {
	if peer.HTTP == "" {
		return false, errors.New("peer has no http address")
	}
	// The peer runs its own probe inside this call, so allow it a
	// probe timeout plus slack of our own.
	ctx, cancel := context.WithTimeout(context.Background(), 2*c.probeTimeout)
	defer cancel()
	u := "http://" + peer.HTTP + "/v1/cluster/probe?node=" + url.QueryEscape(suspect)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false, fmt.Errorf("probe via %s: HTTP %d", peer.ID, resp.StatusCode)
	}
	var pr probeResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return false, err
	}
	return pr.Reachable, nil
}

// shipperFor returns the replication shipper, nil when not shipping.
func (s *Server) shipperFor() *cluster.Shipper {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.shipper
}

// ownsID reports whether this node owns the session id. Single-node
// servers own everything.
func (s *Server) ownsID(id string) bool {
	if s.cluster == nil {
		return true
	}
	return s.cluster.membership.Load().OwnerID(id) == s.cluster.self.ID
}

// allocID draws fresh session ids until one lands in this node's hash
// range, so every node allocates from a disjoint id space and a create
// never needs forwarding. Expected tries = node count.
func (s *Server) allocID() string {
	for {
		id := fmt.Sprintf("s%04d", s.nextID.Add(1))
		if s.ownsID(id) {
			return id
		}
	}
}

// routeAway answers a request for a session this node does not own:
// a transparent proxy to the owner in proxy mode, otherwise a 307
// whose Location and X-Jim-Owner headers carry the owner, with the
// structured not_owner envelope as the body.
func (s *Server) routeAway(w http.ResponseWriter, r *http.Request, id string) {
	c := s.cluster
	owner := c.membership.Load().Owner(id)
	if owner.ID == "" || owner.HTTP == "" {
		writeError(w, jim.CodeInternal, "no reachable owner for session %q", id)
		return
	}
	if c.proxy {
		c.proxyTo(owner).ServeHTTP(w, r)
		return
	}
	w.Header().Set("X-Jim-Owner", owner.ID+"="+owner.HTTP)
	w.Header().Set("Location", "http://"+owner.HTTP+r.URL.RequestURI())
	writeError(w, jim.CodeNotOwner, "session %q is owned by %s at %s", id, owner.ID, owner.HTTP)
}

// checkWireOwner is routeAway for the wire protocol: the NOT_OWNER
// error frame's message carries "nodeID=address" (wire address when
// the owner has one, HTTP otherwise).
func (s *Server) checkWireOwner(id string) error {
	if s.ownsID(id) {
		return nil
	}
	owner := s.cluster.membership.Load().Owner(id)
	addr := owner.Wire
	if addr == "" {
		addr = owner.HTTP
	}
	return &jim.Error{Code: jim.CodeNotOwner, Message: owner.ID + "=" + addr}
}

func (c *clusterState) proxyTo(n cluster.Node) http.Handler {
	if p, ok := c.proxies.Load(n.ID); ok {
		return p.(http.Handler)
	}
	p := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: n.HTTP})
	p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		writeError(w, jim.CodeInternal, "proxying to %s: %v", n.ID, err)
	}
	actual, _ := c.proxies.LoadOrStore(n.ID, p)
	return actual.(http.Handler)
}

// resyncShip is the shipper's Resync callback: on every (re)connect —
// and after a queue overflow — ship a current snapshot of every live
// session. Runs on the shipper goroutine; buildSnapshot under
// RLock+pickMu is exactly the snapshotLive capture discipline, and
// Seq is read under the same locks, so the snapshot and its watermark
// agree.
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

// errSessionDeleted marks a snapshot capture that lost the race with
// a purge — nothing to ship, not a failure.
var errSessionDeleted = errors.New("server: session deleted")

// captureSnapshot captures one live session plus its replication
// watermark: buildSnapshot under RLock+pickMu is exactly the
// snapshotLive capture discipline, and Seq is read under the same
// locks, so the snapshot and its watermark agree.
func captureSnapshot(ls *liveSession) (store.Snapshot, error) {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if ls.deleted {
		return store.Snapshot{}, errSessionDeleted
	}
	ls.pickMu.Lock()
	snap, err := buildSnapshot(ls)
	if err == nil {
		snap.Seq = ls.replSeq.Load()
	}
	ls.pickMu.Unlock()
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
		// the receive half of a rebalance handoff. Absorb it straight
		// into the live table — no later promotion step will adopt it.
		s.absorbSession(id, ls)
		c.appliedSnaps.Add(1)
		return nil
	}
	c.repMu.Lock()
	c.replicas[id] = &replica{ls: ls, seq: snap.Seq}
	c.repMu.Unlock()
	c.appliedSnaps.Add(1)
	return nil
}

// absorbSession places a freshly rebuilt session this node owns into
// the live table: any stale replica of it is dropped, the id counter
// advances past it, and a local snapshot re-protects it (persisting
// it and shipping it onward to OUR follower).
func (s *Server) absorbSession(id string, ls *liveSession) {
	c := s.cluster
	c.repMu.Lock()
	delete(c.replicas, id)
	c.repMu.Unlock()
	ls.touch(s.now())
	s.sessions.putRestored(id, ls)
	if n, ok := numericID(id); ok {
		for {
			cur := s.nextID.Load()
			if n <= cur || s.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	c.promoted.Add(1)
	if s.persists() {
		if err := s.snapshotSession(id, ls); err != nil {
			s.persist.errors.Add(1)
		}
	}
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
	rep := c.replicas[id]
	if rep == nil {
		c.repMu.Unlock()
		if _, live := s.sessions.get(id); live && s.ownsID(id) {
			c.rejected.Add(1)
			return nil
		}
		c.rejected.Add(1)
		return fmt.Errorf("no replica %q (event before snapshot; awaiting resync)", id)
	}
	if ev.Seq <= rep.seq {
		c.repMu.Unlock()
		return nil
	}
	ls := rep.ls
	c.repMu.Unlock()
	ls.mu.Lock()
	err := replayEvent(ls.sess, ev)
	ls.mu.Unlock()
	if err != nil {
		c.rejected.Add(1)
		return fmt.Errorf("applying event seq %d to replica %q: %w", ev.Seq, id, err)
	}
	c.repMu.Lock()
	if cur := c.replicas[id]; cur == rep {
		rep.seq = ev.Seq
	}
	c.repMu.Unlock()
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

type promoteRequest struct {
	// Node is the dead node whose sessions should fail over.
	Node string `json:"node"`
}

type promoteResponse struct {
	Node            string   `json:"node"`
	PromotedTo      string   `json:"promoted_to"`
	AdoptedSessions int      `json:"adopted_sessions"`
	Alive           []string `json:"alive"`
}

// handlePromote marks a peer failed in this node's membership view
// and adopts every replica the new view assigns to us — the failover
// step an operator drives on each survivor after detecting a death.
// Idempotent: re-promoting an already-failed node adopts nothing new.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, jim.CodeBadInput, "server is not running in cluster mode")
		return
	}
	var req promoteRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		bodyError(w, err)
		return
	}
	if req.Node == "" {
		writeError(w, jim.CodeBadInput, "missing node")
		return
	}
	if req.Node == c.self.ID {
		writeError(w, jim.CodeBadInput, "cannot mark self (%s) failed", c.self.ID)
		return
	}
	m, adopted, err := s.failNode(req.Node)
	if err != nil {
		writeError(w, jim.CodeBadInput, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, promoteResponse{
		Node:            req.Node,
		PromotedTo:      m.Failed()[req.Node],
		AdoptedSessions: adopted,
		Alive:           m.Alive(),
	})
}

// failNode is the shared core of operator promotion and detector
// auto-failover: mark id failed (CAS loop against concurrent view
// changes), adopt every replica the new view assigns to us, and
// retarget the shipper. Idempotent — failing an already-failed node
// adopts nothing new.
func (s *Server) failNode(id string) (*cluster.Membership, int, error) {
	c := s.cluster
	var m *cluster.Membership
	for {
		old := c.membership.Load()
		next, err := old.Fail(id)
		if err != nil {
			return nil, 0, err
		}
		if next == old || c.membership.CompareAndSwap(old, next) {
			m = next
			break
		}
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
	if f, ok := m.FollowerOf(c.self.ID); ok && f.Repl != "" {
		c.shipper.SetTarget(f.Repl)
	} else {
		c.shipper.SetTarget("")
	}
}

// adoptReplicas moves every replica the membership view m assigns to
// this node out of the replica set and into the live table, advances
// the id counter past the adopted ids, and re-protects each adoptee
// with a local snapshot (which also ships it to OUR follower).
func (s *Server) adoptReplicas(m *cluster.Membership) int {
	c := s.cluster
	type adoptee struct {
		id string
		ls *liveSession
	}
	var adopt []adoptee
	c.repMu.Lock()
	for id, rep := range c.replicas {
		if m.OwnerID(id) == c.self.ID {
			adopt = append(adopt, adoptee{id, rep.ls})
			delete(c.replicas, id)
		}
	}
	c.repMu.Unlock()
	var maxID int64
	for _, a := range adopt {
		a.ls.touch(s.now())
		s.sessions.putRestored(a.id, a.ls)
		if n, ok := numericID(a.id); ok && n > maxID {
			maxID = n
		}
	}
	for {
		cur := s.nextID.Load()
		if maxID <= cur || s.nextID.CompareAndSwap(cur, maxID) {
			break
		}
	}
	c.promoted.Add(int64(len(adopt)))
	if s.persists() {
		for _, a := range adopt {
			if err := s.snapshotSession(a.id, a.ls); err != nil {
				s.persist.errors.Add(1)
			}
		}
	}
	return len(adopt)
}

type drainResponse struct {
	Sessions    int  `json:"sessions"`
	Snapshotted int  `json:"snapshotted"`
	Synced      bool `json:"synced"`
}

// handleDrain prepares this node for planned removal: every live
// session is folded into a fresh snapshot (shipped to the follower),
// then the replication stream is synced so the follower has
// acknowledged everything. After a drain returns synced=true, the
// operator promotes this node's range on the survivors and stops the
// process — the TTL-demotion flavored counterpart of kill -9.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, jim.CodeBadInput, "server is not running in cluster mode")
		return
	}
	total, snapped := 0, 0
	s.sessions.forEach(func(id string, ls *liveSession) {
		total++
		if err := s.snapshotSession(id, ls); err != nil {
			s.persist.errors.Add(1)
			return
		}
		snapped++
	})
	synced := false
	if c.shipper != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		synced = c.shipper.Sync(ctx) == nil
	}
	writeJSON(w, http.StatusOK, drainResponse{Sessions: total, Snapshotted: snapped, Synced: synced})
}

// probeResponse is GET /v1/cluster/probe: this node's own view of
// whether it can reach the named peer — the second opinion a
// suspecting detector collects for its quorum.
type probeResponse struct {
	Node      string `json:"node"`
	Reachable bool   `json:"reachable"`
}

// handleClusterProbe answers a peer's quorum-confirmation request by
// running our own direct liveness probe of the suspect.
func (s *Server) handleClusterProbe(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, jim.CodeBadInput, "server is not running in cluster mode")
		return
	}
	id := r.URL.Query().Get("node")
	if id == "" {
		writeError(w, jim.CodeBadInput, "missing node")
		return
	}
	n, ok := c.membership.Load().Node(id)
	if !ok {
		writeError(w, jim.CodeBadInput, "unknown node %q", id)
		return
	}
	if id == c.self.ID {
		writeJSON(w, http.StatusOK, probeResponse{Node: id, Reachable: true})
		return
	}
	writeJSON(w, http.StatusOK, probeResponse{Node: id, Reachable: c.probeNode(n)})
}

// handoff is one session leaving this node during a rejoin or
// rebalance range transfer.
type handoff struct {
	id string
	ls *liveSession
}

// shipSessionsTo streams a snapshot of each session to the target
// node's repl listener through a dedicated shipper and waits for the
// sync barrier — the drain path pointed at an arbitrary peer instead
// of our designated follower.
func (s *Server) shipSessionsTo(ctx context.Context, n cluster.Node, hand []handoff) error {
	tmp := cluster.NewShipper(cluster.ShipperOptions{
		Self:   s.cluster.self.ID,
		Target: n.Repl,
		Logf:   s.cluster.logf,
	})
	defer tmp.Close()
	for _, h := range hand {
		snap, err := captureSnapshot(h.ls)
		if err != nil {
			// Deleted mid-handoff: nothing to move. Other capture
			// failures surface at the sync barrier as a count mismatch
			// only if the session truly never ships; log them.
			if err != errSessionDeleted {
				s.cluster.logf("cluster: handoff snapshot %s: %v", h.id, err)
			}
			continue
		}
		tmp.ShipSnapshot(h.id, snap)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return tmp.Sync(sctx)
}

// releaseSession finishes a range handoff: the session leaves the
// live table (demoted, not deleted — it lives on under a new owner),
// our follower is told to drop its replica, and the local durable
// copy is compacted away so a future restart of this node does not
// resurrect stale state. When this node is the new owner's designated
// follower, the still-warm state stays in the replica set instead —
// the new owner's stream keeps it fresh from here on. A write racing
// the handoff can recreate a WAL remnant after the compaction;
// restore logs and skips those.
func (s *Server) releaseSession(id string, ls *liveSession, keepReplica bool) {
	c := s.cluster
	s.sessions.demote(id)
	if keepReplica {
		c.repMu.Lock()
		c.replicas[id] = &replica{ls: ls, seq: ls.replSeq.Load()}
		c.repMu.Unlock()
	}
	if c.shipper != nil {
		c.shipper.ShipDrop(id)
	}
	if s.durable {
		if err := s.cfg.Store.Compact(id); err != nil {
			s.persist.errors.Add(1)
		}
	}
}

type rejoinRequest struct {
	// Node is the restarted node reclaiming its range.
	Node string `json:"node"`
}

type rejoinResponse struct {
	Node        string   `json:"node"`
	Transferred int      `json:"transferred"`
	Synced      bool     `json:"synced"`
	Alive       []string `json:"alive"`
}

// handleRejoin brings a previously failed peer back into this node's
// view: every live session the rejoined view assigns to it is shipped
// to its repl listener (with a sync barrier — routing only flips after
// the state has provably arrived), then the view CASes to Rejoin and
// the transferred sessions are released. On nodes holding none of the
// returning range this degenerates to the bare view flip, so the
// rejoining node broadcasts the same call to every survivor.
// Idempotent: rejoining an alive node transfers nothing.
func (s *Server) handleRejoin(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, jim.CodeBadInput, "server is not running in cluster mode")
		return
	}
	var req rejoinRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		bodyError(w, err)
		return
	}
	if req.Node == "" {
		writeError(w, jim.CodeBadInput, "missing node")
		return
	}
	if req.Node == c.self.ID {
		writeError(w, jim.CodeBadInput, "cannot rejoin self (%s) via a peer endpoint", c.self.ID)
		return
	}
	old := c.membership.Load()
	node, ok := old.Node(req.Node)
	if !ok {
		writeError(w, jim.CodeBadInput, "unknown node %q", req.Node)
		return
	}
	next, err := old.Rejoin(req.Node)
	if err != nil {
		writeError(w, jim.CodeBadInput, "%v", err)
		return
	}
	if next == old {
		writeJSON(w, http.StatusOK, rejoinResponse{Node: req.Node, Synced: true, Alive: old.Alive()})
		return
	}
	collect := func(view *cluster.Membership) []handoff {
		var hand []handoff
		s.sessions.forEach(func(id string, ls *liveSession) {
			if view.OwnerID(id) == req.Node {
				hand = append(hand, handoff{id, ls})
			}
		})
		return hand
	}
	hand := collect(next)
	if len(hand) > 0 {
		if node.Repl == "" {
			writeError(w, jim.CodeBadInput, "node %q has no repl address to transfer %d sessions through", req.Node, len(hand))
			return
		}
		if err := s.shipSessionsTo(r.Context(), node, hand); err != nil {
			// The range did not provably arrive; keep serving it and
			// leave routing alone.
			writeError(w, jim.CodeInternal, "transferring %d sessions to %q: %v", len(hand), req.Node, err)
			return
		}
	}
	var m *cluster.Membership
	for {
		cur := c.membership.Load()
		nv, err := cur.Rejoin(req.Node)
		if err != nil {
			writeError(w, jim.CodeBadInput, "%v", err)
			return
		}
		if nv == cur || c.membership.CompareAndSwap(cur, nv) {
			m = nv
			break
		}
	}
	keep := false
	if f, ok := m.FollowerOf(req.Node); ok && f.ID == c.self.ID {
		keep = true
	}
	for _, h := range hand {
		s.releaseSession(h.id, h.ls, keep)
	}
	// A create could have landed in the returning range between the
	// transfer and the view flip; the flip stops further ones, so one
	// more pass drains the window.
	if extra := collect(m); len(extra) > 0 {
		if err := s.shipSessionsTo(r.Context(), node, extra); err != nil {
			c.logf("cluster: rejoin %s: late transfer of %d sessions failed: %v", req.Node, len(extra), err)
		} else {
			for _, h := range extra {
				s.releaseSession(h.id, h.ls, keep)
			}
			hand = append(hand, extra...)
		}
	}
	s.retargetShipper(m)
	if c.detector != nil {
		// Re-grant the returning node's lease: its last heartbeat is
		// ancient history.
		c.detector.Heartbeat(req.Node)
	}
	c.logf("cluster: %s rejoined, handed back %d sessions", req.Node, len(hand))
	writeJSON(w, http.StatusOK, rejoinResponse{
		Node:        req.Node,
		Transferred: len(hand),
		Synced:      true,
		Alive:       m.Alive(),
	})
}

type rebalanceResponse struct {
	Sessions int            `json:"sessions"`
	Moved    int            `json:"moved"`
	Targets  map[string]int `json:"targets,omitempty"`
	Synced   bool           `json:"synced"`
}

// handleRebalance ships every live session whose ring owner under the
// current view is another node to that owner through the drain path,
// then releases it locally — the planned movement step after a
// peer-set change (run it on each pre-existing node after restarting
// the cluster with the new peer spec). The receiving owner absorbs
// shipped state for its own range directly into its live table (see
// ApplySnapshot), so no promotion follows. With no peer-set change
// the call is a no-op.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, jim.CodeBadInput, "server is not running in cluster mode")
		return
	}
	m := c.membership.Load()
	total := 0
	byOwner := map[string][]handoff{}
	s.sessions.forEach(func(id string, ls *liveSession) {
		total++
		if own := m.OwnerID(id); own != c.self.ID {
			byOwner[own] = append(byOwner[own], handoff{id, ls})
		}
	})
	moved := 0
	synced := true
	targets := map[string]int{}
	for own, hs := range byOwner {
		n, ok := m.Node(own)
		if !ok || n.Repl == "" {
			c.logf("cluster: rebalance: %s has no repl address, keeping %d sessions", own, len(hs))
			synced = false
			continue
		}
		if err := s.shipSessionsTo(r.Context(), n, hs); err != nil {
			// Not provably delivered: keep serving these rather than
			// strand them.
			c.logf("cluster: rebalance: transfer of %d sessions to %s failed: %v", len(hs), own, err)
			synced = false
			continue
		}
		keep := false
		if f, ok := m.FollowerOf(own); ok && f.ID == c.self.ID {
			keep = true
		}
		for _, h := range hs {
			s.releaseSession(h.id, h.ls, keep)
		}
		moved += len(hs)
		targets[own] = len(hs)
	}
	if moved > 0 {
		c.logf("cluster: rebalance moved %d of %d sessions", moved, total)
	}
	writeJSON(w, http.StatusOK, rebalanceResponse{Sessions: total, Moved: moved, Targets: targets, Synced: synced})
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
	m := c.membership.Load()
	var remoteFailed map[string]string
	for _, n := range m.Members() {
		if n.ID == c.self.ID {
			continue
		}
		view, err := c.fetchView(ctx, n)
		if err != nil {
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
	for {
		cur := c.membership.Load()
		nv, err := cur.ImportFailed(remoteFailed)
		if err != nil {
			return fail(fmt.Errorf("server: rejoin: %w", err))
		}
		if nv == cur || c.membership.CompareAndSwap(cur, nv) {
			break
		}
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
	holder, ok := c.membership.Load().Node(holderID)
	if !ok || holder.HTTP == "" {
		return fail(fmt.Errorf("server: rejoin: no reachable holder for our range (chain ends at %q)", holderID))
	}
	rep.Holder = holderID
	if err := c.postRejoin(ctx, holder, c.self.ID); err != nil {
		return fail(fmt.Errorf("server: rejoin via %s: %w", holderID, err))
	}
	rep.PeersNotified++
	c.rejoinState.Store(&rejoinProgress{Node: c.self.ID, Phase: "reclaiming"})
	var nv *cluster.Membership
	for {
		cur := c.membership.Load()
		next, err := cur.Rejoin(c.self.ID)
		if err != nil {
			return fail(fmt.Errorf("server: rejoin: %w", err))
		}
		if next == cur || c.membership.CompareAndSwap(cur, next) {
			nv = next
			break
		}
	}
	rep.Reclaimed = s.adoptReplicas(nv)
	s.retargetShipper(nv)
	// Converge the remaining survivors; their handlers transfer any
	// strays of our range and flip their views.
	failed := nv.Failed()
	for _, n := range nv.Members() {
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

// fetchView reads a peer's GET /v1/cluster membership view.
func (c *clusterState) fetchView(ctx context.Context, n cluster.Node) (*clusterResponse, error) {
	rctx, cancel := context.WithTimeout(ctx, 2*c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, "http://"+n.HTTP+"/v1/cluster", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /v1/cluster on %s: HTTP %d", n.ID, resp.StatusCode)
	}
	var view clusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, err
	}
	return &view, nil
}

// postRejoin drives a peer's POST /v1/cluster/rejoin for node id.
func (c *clusterState) postRejoin(ctx context.Context, n cluster.Node, id string) error {
	body, err := json.Marshal(rejoinRequest{Node: id})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+n.HTTP+"/v1/cluster/rejoin", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/cluster/rejoin on %s: HTTP %d: %s", n.ID, resp.StatusCode, msg)
	}
	return nil
}

type clusterResponse struct {
	Self          string            `json:"self"`
	Proxy         bool              `json:"proxy"`
	Nodes         []cluster.Node    `json:"nodes"`
	Alive         []string          `json:"alive"`
	Failed        map[string]string `json:"failed"`
	OwnedSessions int               `json:"owned_sessions"`
	Replicas      int               `json:"replicas"`
	// LeaseMS is the failure-detector lease; 0 when the detector is
	// off (operator-driven failover only).
	LeaseMS float64 `json:"lease_ms,omitempty"`
	// Suspected maps each currently suspected peer to how many
	// seconds it has been under (not yet quorum-confirmed) suspicion.
	Suspected map[string]float64 `json:"suspected,omitempty"`
	// Rejoin reports this node's rejoin-in-flight state, if any.
	Rejoin *rejoinProgress `json:"rejoin,omitempty"`
}

// handleCluster serves the membership view: topology, who is alive,
// and where failed ranges went.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, jim.CodeBadInput, "server is not running in cluster mode")
		return
	}
	m := c.membership.Load()
	owned := 0
	s.sessions.forEach(func(string, *liveSession) { owned++ })
	c.repMu.Lock()
	nrep := len(c.replicas)
	c.repMu.Unlock()
	resp := clusterResponse{
		Self:          c.self.ID,
		Proxy:         c.proxy,
		Nodes:         m.Members(),
		Alive:         m.Alive(),
		Failed:        m.Failed(),
		OwnedSessions: owned,
		Replicas:      nrep,
		Rejoin:        c.rejoinState.Load(),
	}
	if c.lease > 0 {
		resp.LeaseMS = float64(c.lease) / float64(time.Millisecond)
	}
	if c.detector != nil {
		if sus := c.detector.Suspicions(); len(sus) > 0 {
			resp.Suspected = make(map[string]float64, len(sus))
			for id, since := range sus {
				resp.Suspected[id] = s.now().Sub(since).Seconds()
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse is GET /healthz: node identity, role counts,
// replication lag, and restore status — everything a failover
// detector or load balancer needs in one unauthenticated probe.
type healthResponse struct {
	Status      string      `json:"status"`
	Cluster     bool        `json:"cluster"`
	Node        string      `json:"node,omitempty"`
	Role        *roleHealth `json:"role,omitempty"`
	Replication *replHealth `json:"replication,omitempty"`
	Store       storeStats  `json:"store"`
	UptimeSecs  float64     `json:"uptime_seconds"`
	Started     time.Time   `json:"started"`
}

type roleHealth struct {
	// OwnedSessions counts live sessions this node answers for;
	// Replicas counts sessions it follows for other owners.
	OwnedSessions    int   `json:"owned_sessions"`
	Replicas         int   `json:"replicas"`
	PromotedSessions int64 `json:"promoted_sessions"`
}

type replHealth struct {
	// Ship is the outbound stream to our follower (nil when this node
	// has nobody to ship to). Ship.QueuedEvents is the replication lag
	// in events.
	Ship             *cluster.ShipStats `json:"ship,omitempty"`
	AppliedEvents    int64              `json:"applied_events"`
	AppliedSnapshots int64              `json:"applied_snapshots"`
	RejectedMessages int64              `json:"rejected_messages"`
	// Synced is present only on ?sync=1 probes: true when the follower
	// acknowledged everything shipped before the probe.
	Synced *bool `json:"synced,omitempty"`
}

// handleHealthz serves the liveness/role probe. ?sync=1 additionally
// runs a replication barrier: the response reports whether the
// follower acknowledged the whole stream (the failover tests use this
// to bound replication lag before killing a node).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:     "ok",
		Store:      s.storeStats(),
		Started:    s.metrics.startedAt,
		UptimeSecs: s.now().Sub(s.metrics.startedAt).Seconds(),
	}
	if c := s.cluster; c != nil {
		resp.Cluster = true
		resp.Node = c.self.ID
		owned := 0
		s.sessions.forEach(func(string, *liveSession) { owned++ })
		c.repMu.Lock()
		nrep := len(c.replicas)
		c.repMu.Unlock()
		resp.Role = &roleHealth{
			OwnedSessions:    owned,
			Replicas:         nrep,
			PromotedSessions: c.promoted.Load(),
		}
		rh := &replHealth{
			AppliedEvents:    c.applied.Load(),
			AppliedSnapshots: c.appliedSnaps.Load(),
			RejectedMessages: c.rejected.Load(),
		}
		if c.shipper != nil {
			if r.URL.Query().Get("sync") != "" {
				ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
				defer cancel()
				ok := c.shipper.Sync(ctx) == nil
				rh.Synced = &ok
			}
			// Read the counters after the barrier: a synced reply must
			// report the lag it left behind, not the lag it waited out.
			st := c.shipper.Stats()
			rh.Ship = &st
		}
		resp.Replication = rh
	}
	writeJSON(w, http.StatusOK, resp)
}
