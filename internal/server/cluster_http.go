package server

import (
	"net/http"
	"strconv"
	"time"

	jim "repro"
	"repro/internal/cluster"
)

// This file serves the /v1/cluster* endpoints and the /healthz probe.

// clusterOnly refuses a /v1/cluster* request on a server without
// EnableCluster. It checks per request: a server's Handler may be
// built before cluster mode is enabled.
func (s *Server) clusterOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cluster == nil {
			writeError(w, jim.CodeBadInput, "server is not running in cluster mode")
			return
		}
		h(w, r)
	}
}

// nodeRequest is the body of POST /v1/cluster/promote and /rejoin, and
// what postRejoin sends.
type nodeRequest struct {
	// Node is the peer the transition is about: the dead node to fail
	// over, or the restarted node reclaiming its range.
	Node string `json:"node"`
}

// decodeNode reads a nodeRequest naming a node other than this one;
// selfMsg is the endpoint's message for this node's own id, formatted
// with that id. On failure it writes the error reply and returns false.
func (s *Server) decodeNode(w http.ResponseWriter, r *http.Request, selfMsg string) (string, bool) {
	var req nodeRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		bodyError(w, err)
		return "", false
	}
	switch req.Node {
	case "":
		writeError(w, jim.CodeBadInput, "missing node")
	case s.cluster.self.ID:
		writeError(w, jim.CodeBadInput, selfMsg, req.Node)
	default:
		return req.Node, true
	}
	return "", false
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
	id, ok := s.decodeNode(w, r, "cannot mark self (%s) failed")
	if !ok {
		return
	}
	m, adopted, err := s.failNode(id)
	if err != nil {
		writeError(w, jim.CodeBadInput, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, promoteResponse{
		Node:            id,
		PromotedTo:      m.Failed()[id],
		AdoptedSessions: adopted,
		Alive:           m.Alive(),
	})
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
	total, snapped := 0, 0
	s.sessions.forEach(func(id string, ls *liveSession) {
		total++
		if err := s.snapshotSession(id, ls); err != nil {
			s.persist.errors.Add(1)
			c.logf("cluster: drain %s: snapshot: %v", id, err)
			return
		}
		snapped++
	})
	synced := false
	if c.shipper != nil {
		synced = syncWithin(r.Context(), c.shipper, 10*time.Second) == nil
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
	writeJSON(w, http.StatusOK, probeResponse{Node: id, Reachable: id == c.self.ID || c.probeNode(n)})
}

type rejoinResponse struct {
	Node        string   `json:"node"`
	Transferred int      `json:"transferred"`
	Synced      bool     `json:"synced"`
	Alive       []string `json:"alive"`
}

// handleRejoin brings a previously failed peer back into this node's
// view: every live session the rejoined view assigns to it is shipped
// to its repl listener, then the view flips to Rejoin, and only then
// are the transferred sessions released. Shipping first means routing
// flips only after the state has provably arrived; releasing after
// the flip means no request is routed here once its session is gone.
// On nodes holding none of the returning range this degenerates to the
// bare view flip, so the rejoining node broadcasts the same call to
// every survivor. Idempotent: rejoining an alive node transfers
// nothing.
func (s *Server) handleRejoin(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	id, ok := s.decodeNode(w, r, "cannot rejoin self (%s) via a peer endpoint")
	if !ok {
		return
	}
	old := c.membership.Load()
	node, ok := old.Node(id)
	if !ok {
		writeError(w, jim.CodeBadInput, "unknown node %q", id)
		return
	}
	next, err := old.Rejoin(id)
	if err != nil {
		writeError(w, jim.CodeBadInput, "%v", err)
		return
	}
	if next == old {
		writeJSON(w, http.StatusOK, rejoinResponse{Node: id, Synced: true, Alive: old.Alive()})
		return
	}
	byOwner, _ := s.liveByOwner(next)
	hand := byOwner[id]
	if len(hand) > 0 {
		if node.Repl == "" {
			writeError(w, jim.CodeBadInput, "node %q has no repl address to transfer %d sessions through", id, len(hand))
			return
		}
		if err := s.shipSessionsTo(r.Context(), node, hand); err != nil {
			// The range did not provably arrive; keep serving it and
			// leave routing alone.
			writeError(w, jim.CodeInternal, "transferring %d sessions to %q: %v", len(hand), id, err)
			return
		}
	}
	m, err := c.swapView(func(m *cluster.Membership) (*cluster.Membership, error) { return m.Rejoin(id) })
	if err != nil {
		writeError(w, jim.CodeBadInput, "%v", err)
		return
	}
	s.releaseTo(m, id, hand)
	// A create could have landed in the returning range between the
	// transfer and the view flip; the flip stops further ones, so one
	// more pass drains the window.
	byOwner, _ = s.liveByOwner(m)
	if extra := byOwner[id]; len(extra) > 0 {
		if err := s.shipSessionsTo(r.Context(), node, extra); err != nil {
			c.logf("cluster: rejoin %s: late transfer of %d sessions failed: %v", id, len(extra), err)
		} else {
			s.releaseTo(m, id, extra)
			hand = append(hand, extra...)
		}
	}
	s.retargetShipper(m)
	if c.detector != nil {
		// Re-grant the returning node's lease: its last heartbeat is
		// ancient history.
		c.detector.Heartbeat(id)
	}
	c.logf("cluster: %s rejoined, handed back %d sessions", id, len(hand))
	writeJSON(w, http.StatusOK, rejoinResponse{Node: id, Transferred: len(hand), Synced: true, Alive: m.Alive()})
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
// the cluster with the new peer spec). The receiving owner adopts
// shipped state for its own range directly into its live table (see
// ApplySnapshot), so no promotion follows. With no peer-set change
// the call is a no-op.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	m := c.membership.Load()
	byOwner, total := s.liveByOwner(m)
	moved := 0
	synced := true
	targets := map[string]int{}
	for own, hand := range byOwner {
		n, ok := m.Node(own)
		if !ok || n.Repl == "" {
			c.logf("cluster: rebalance: %s has no repl address, keeping %d sessions", own, len(hand))
			synced = false
			continue
		}
		if err := s.shipSessionsTo(r.Context(), n, hand); err != nil {
			// Not provably delivered: keep serving these rather than
			// strand them.
			c.logf("cluster: rebalance: transfer of %d sessions to %s failed: %v", len(hand), own, err)
			synced = false
			continue
		}
		s.releaseTo(m, own, hand)
		moved += len(hand)
		targets[own] = len(hand)
	}
	if moved > 0 {
		c.logf("cluster: rebalance moved %d of %d sessions", moved, total)
	}
	writeJSON(w, http.StatusOK, rebalanceResponse{Sessions: total, Moved: moved, Targets: targets, Synced: synced})
}

// roleCounts counts the live sessions this node owns and the replicas
// it follows for other owners.
func (s *Server) roleCounts() (owned, replicas int) {
	s.sessions.forEach(func(string, *liveSession) { owned++ })
	c := s.cluster
	c.repMu.Lock()
	replicas = len(c.replicas)
	c.repMu.Unlock()
	return owned, replicas
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
	m := c.membership.Load()
	owned, replicas := s.roleCounts()
	resp := clusterResponse{
		Self:          c.self.ID,
		Proxy:         c.proxy,
		Nodes:         m.Members(),
		Alive:         m.Alive(),
		Failed:        m.Failed(),
		OwnedSessions: owned,
		Replicas:      replicas,
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

// handleHealthz serves the liveness/role probe. ?sync=1 (any value
// strconv.ParseBool reads as true) additionally runs a replication
// barrier: the response reports whether the follower acknowledged the
// whole stream (the failover tests use this to bound replication lag
// before killing a node).
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
		resp.Role = &roleHealth{PromotedSessions: c.promoted.Load()}
		resp.Role.OwnedSessions, resp.Role.Replicas = s.roleCounts()
		rh := &replHealth{
			AppliedEvents:    c.applied.Load(),
			AppliedSnapshots: c.appliedSnaps.Load(),
			RejectedMessages: c.rejected.Load(),
		}
		if c.shipper != nil {
			if sync, _ := strconv.ParseBool(r.URL.Query().Get("sync")); sync {
				ok := syncWithin(r.Context(), c.shipper, 5*time.Second) == nil
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
