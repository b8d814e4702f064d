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
)

// The server side of internal/cluster is four files. This one holds
// the options, enabling cluster mode, session routing (consistent-hash
// ownership with 307 redirects or transparent proxying) and the calls
// this node makes to its peers. replica.go is the follower side: the
// replica set a node keeps warm from its predecessor's stream.
// transition.go moves ownership: failover, adoption, range handoff and
// rejoin. cluster_http.go serves the /v1/cluster* endpoints and
// /healthz. A server without EnableCluster behaves exactly as before —
// every hook is nil-guarded.

// ClusterOptions configures EnableCluster.
type ClusterOptions struct {
	// Self is this node's id; it must appear in Peers.
	Self string
	// Peers is the full static peer set (this node included).
	Peers []cluster.Node
	// Proxy transparently proxies non-owned requests to the owner
	// instead of answering 307.
	Proxy bool
	Logf  func(format string, args ...any)
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
}

// probeTimeout bounds each direct liveness probe; a peer call that
// runs a probe of its own gets twice that.
const probeTimeout = time.Second

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
	// swept. A replica's replSeq is its dedup watermark: the last
	// replication sequence applied to it. repMu guards the map.
	repMu    sync.Mutex
	replicas map[string]*liveSession

	// detector is the lease failure detector; nil when Lease is 0.
	detector *cluster.Detector
	lease    time.Duration
	client   *http.Client
	// rejoinState tracks a rejoin in flight on this node, surfaced in
	// GET /v1/cluster for operators watching the transition.
	rejoinState atomic.Pointer[rejoinProgress]

	promoted     atomic.Int64 // sessions adopted from peers (failover, rejoin, rebalance)
	applied      atomic.Int64 // replication events applied
	appliedSnaps atomic.Int64 // replication snapshots applied
	rejected     atomic.Int64 // replication messages refused
}

// EnableCluster switches the server into cluster mode. Call it after
// NewWith/Restore and before serving traffic: it is not safe to
// enable on a server already handling requests.
func (s *Server) EnableCluster(opts ClusterOptions) error {
	if s.cluster != nil {
		return errors.New("server: cluster mode already enabled")
	}
	m, err := cluster.NewMembership(opts.Peers, cluster.DefaultVnodes)
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
	c := &clusterState{self: self, proxy: opts.Proxy, logf: logf, lease: opts.Lease,
		replicas: map[string]*liveSession{}, client: &http.Client{}}
	c.membership.Store(m)
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
			HeartbeatEvery: hb,
		})
	}
	if opts.Lease > 0 {
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

// call sends one request to a peer's HTTP API and decodes a 200 reply
// into out (nil discards it); in, when non-nil, is the JSON body.
// timeout > 0 bounds the call within ctx.
func (c *clusterState) call(ctx context.Context, timeout time.Duration, method string, n cluster.Node, path string, in, out any) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+n.HTTP+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s %s on %s: HTTP %d: %s", method, path, n.ID, resp.StatusCode, msg)
	}
	if out == nil {
		// Drain so the connection can be reused; the reply was a 200.
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// probeNode is the detector's direct liveness check: does the node
// answer GET /healthz within the probe timeout?
func (c *clusterState) probeNode(n cluster.Node) bool {
	return c.call(context.Background(), probeTimeout, http.MethodGet, n, "/healthz", nil, nil) == nil
}

// confirmVia asks another live peer for a second opinion on a
// suspect, via its GET /v1/cluster/probe endpoint. An error means the
// peer could not be asked (it abstains from the quorum vote). The peer
// runs its own probe inside this call, so it gets two probe timeouts.
func (c *clusterState) confirmVia(peer cluster.Node, suspect string) (bool, error) {
	var pr probeResponse
	if err := c.call(context.Background(), 2*probeTimeout, http.MethodGet, peer,
		"/v1/cluster/probe?node="+url.QueryEscape(suspect), nil, &pr); err != nil {
		return false, err
	}
	return pr.Reachable, nil
}

// fetchView reads a peer's GET /v1/cluster membership view.
func (c *clusterState) fetchView(ctx context.Context, n cluster.Node) (*clusterResponse, error) {
	var view clusterResponse
	if err := c.call(ctx, 2*probeTimeout, http.MethodGet, n, "/v1/cluster", nil, &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// postRejoin drives a peer's POST /v1/cluster/rejoin for node id. Only
// ctx bounds it: the peer ships the returning range before it answers.
func (c *clusterState) postRejoin(ctx context.Context, n cluster.Node, id string) error {
	return c.call(ctx, 0, http.MethodPost, n, "/v1/cluster/rejoin", nodeRequest{Node: id}, nil)
}

// shipperFor returns the replication shipper, nil when not shipping.
func (s *Server) shipperFor() *cluster.Shipper {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.shipper
}

// syncWithin runs sh's sync barrier — every message shipped so far
// acknowledged by the target — bounded by d within ctx.
func syncWithin(ctx context.Context, sh *cluster.Shipper, d time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	return sh.Sync(ctx)
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
