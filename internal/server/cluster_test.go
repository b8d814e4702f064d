package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	jim "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// clusterNode is one in-process cluster member: the server, its HTTP
// front end, and its replication listener.
type clusterNode struct {
	id     string
	srv    *server.Server
	ts     *httptest.Server
	repl   *cluster.ReplServer
	replLn net.Listener
	dead   bool
}

func (n *clusterNode) base() string { return n.ts.URL + "/v1" }

// kill is a SIGKILL-style stop: stop serving HTTP, tear down the
// replication listener, stop shipping. No drain, no snapshot-all.
func (n *clusterNode) kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.ts.Close()
	n.repl.Close()
	n.srv.CloseCluster()
}

// startCluster brings up an in-process cluster of mem-store nodes:
// real HTTP listeners, real replication streams, shared peer table.
func startCluster(t *testing.T, ids ...string) map[string]*clusterNode {
	t.Helper()
	return startClusterWith(t, server.Config{}, ids...)
}

// startClusterWith is startCluster with every node built from cfg.
func startClusterWith(t *testing.T, cfg server.Config, ids ...string) map[string]*clusterNode {
	t.Helper()
	nodes := make(map[string]*clusterNode, len(ids))
	var peers []cluster.Node
	for _, id := range ids {
		srv := server.NewWith(cfg)
		ts := httptest.NewServer(srv.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = &clusterNode{id: id, srv: srv, ts: ts, replLn: ln}
		peers = append(peers, cluster.Node{
			ID:   id,
			HTTP: strings.TrimPrefix(ts.URL, "http://"),
			Repl: ln.Addr().String(),
		})
	}
	for _, id := range ids {
		n := nodes[id]
		if err := n.srv.EnableCluster(server.ClusterOptions{Self: id, Peers: peers, Logf: t.Logf}); err != nil {
			t.Fatal(err)
		}
		n.repl = &cluster.ReplServer{Applier: n.srv, Logf: t.Logf, Heartbeat: n.srv.ClusterHeartbeat}
		go n.repl.Serve(n.replLn)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill()
		}
	})
	return nodes
}

// healthz is the subset of GET /healthz the tests read.
type healthz struct {
	Status  string `json:"status"`
	Cluster bool   `json:"cluster"`
	Node    string `json:"node"`
	Role    *struct {
		OwnedSessions    int   `json:"owned_sessions"`
		Replicas         int   `json:"replicas"`
		PromotedSessions int64 `json:"promoted_sessions"`
	} `json:"role"`
	Replication *struct {
		Ship *struct {
			Connected    bool  `json:"connected"`
			QueuedEvents int64 `json:"queued_events"`
		} `json:"ship"`
		AppliedEvents    int64 `json:"applied_events"`
		AppliedSnapshots int64 `json:"applied_snapshots"`
		Synced           *bool `json:"synced"`
	} `json:"replication"`
}

// quiesce runs the ?sync=1 replication barrier against a node and
// asserts the follower acknowledged the whole stream.
func quiesce(t *testing.T, n *clusterNode) healthz {
	t.Helper()
	var h healthz
	doJSON(t, "GET", n.ts.URL+"/healthz?sync=1", nil, http.StatusOK, &h)
	if h.Replication == nil || h.Replication.Synced == nil || !*h.Replication.Synced {
		t.Fatalf("node %s did not sync its replication stream: %+v", n.id, h)
	}
	if q := h.Replication.Ship.QueuedEvents; q != 0 {
		t.Fatalf("node %s still has %d queued replication events after sync", n.id, q)
	}
	return h
}

// TestClusterFailoverDifferential is the replication acceptance test:
// for every shipped strategy, a session is driven over HTTP against
// its owner node while a never-interrupted in-process core.Session
// tracks it in lockstep. Mid-dialogue — with a non-empty skip set and
// streamed-in arrivals — the owner is killed without warning, the
// follower is promoted, and the dialogue continues against it. Every
// proposal from the kill point to convergence must match the
// uninterrupted reference tuple for tuple.
func TestClusterFailoverDifferential(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			var (
				initial *relation.Relation
				batches [][]relation.Tuple
				goal    partition.P
			)
			if name == "optimal" {
				initial, goal = workload.Travel(), workload.TravelQ2()
			} else {
				stream, err := workload.NewStream("synthetic", workload.StreamConfig{Batches: 2, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				initial, batches, goal = stream.Initial, stream.Batches, stream.Goal
			}

			refRel := relation.New(initial.Schema())
			initial.Each(func(i int, tu relation.Tuple) { refRel.MustAppend(tu) })
			refSt, err := core.NewState(refRel)
			if err != nil {
				t.Fatal(err)
			}
			picker, err := strategy.ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref := core.NewSession(refSt, picker)
			ref.RedeferLimit = -1

			nodes := startCluster(t, "nA", "nB")
			owner := nodes["nA"]

			var csv bytes.Buffer
			if err := relation.WriteCSV(&csv, initial); err != nil {
				t.Fatal(err)
			}
			var s summary
			doJSON(t, "POST", owner.base()+"/sessions",
				map[string]any{"csv": csv.String(), "strategy": name, "seed": 7},
				http.StatusCreated, &s)

			label := func(i int) string {
				if core.Selects(goal, refSt.Relation().Tuple(i)) {
					return "+"
				}
				return "-"
			}

			nextBatch := 0
			questions := 0
			drive := func(base string, stopAt int) bool {
				for step := 0; ; step++ {
					if step > 6*refSt.Relation().Len() {
						t.Fatal("protocol did not converge")
					}
					if stopAt >= 0 && questions >= stopAt {
						return false
					}
					if nextBatch < len(batches) && step%4 == 3 {
						batch := batches[nextBatch]
						rows := make([][]string, len(batch))
						for bi, tu := range batch {
							row := make([]string, len(tu))
							for c, v := range tu {
								row[c] = relation.EncodeCell(v)
							}
							rows[bi] = row
						}
						doJSON(t, "POST", base+"/tuples", map[string]any{"rows": rows}, http.StatusOK, nil)
						b, err := relation.BatchOf(refSt.Relation().Schema().Len(), batch)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := ref.Append(b); err != nil {
							t.Fatal(err)
						}
						nextBatch++
						continue
					}
					var n next
					doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
					refIdx, refOK := ref.Propose()
					if n.Done != !refOK {
						t.Fatalf("step %d: done=%v over HTTP, propose ok=%v in-process", step, n.Done, refOK)
					}
					if n.Done {
						if nextBatch < len(batches) {
							continue
						}
						return true
					}
					if n.Tuple.Index != refIdx {
						t.Fatalf("step %d (q%d): HTTP proposed tuple %d, reference %d",
							step, questions, n.Tuple.Index, refIdx)
					}
					if questions%5 == 2 {
						doJSON(t, "POST", base+"/label",
							map[string]any{"index": n.Tuple.Index, "label": "skip"}, http.StatusOK, nil)
						if err := ref.Skip(refIdx); err != nil {
							t.Fatal(err)
						}
					} else {
						doJSON(t, "POST", base+"/label",
							map[string]any{"index": n.Tuple.Index, "label": label(n.Tuple.Index)},
							http.StatusOK, nil)
						if _, err := ref.Answer(refIdx, parseLabel(label(refIdx))); err != nil {
							t.Fatal(err)
						}
					}
					questions++
				}
			}

			// Phase 1 on the owner: past the question-2 skip, so the
			// replica must carry a non-empty skip set across failover.
			converged := drive(owner.base()+"/sessions/"+s.ID, 3)

			// Bound replication lag to zero, then kill the owner cold.
			quiesce(t, owner)
			owner.kill()

			// Promote the survivor and verify it adopted the session.
			follower := nodes["nB"]
			var prom struct {
				PromotedTo      string `json:"promoted_to"`
				AdoptedSessions int    `json:"adopted_sessions"`
			}
			doJSON(t, "POST", follower.base()+"/cluster/promote",
				map[string]any{"node": "nA"}, http.StatusOK, &prom)
			if prom.PromotedTo != "nB" || prom.AdoptedSessions != 1 {
				t.Fatalf("promotion = %+v, want nB adopting 1 session", prom)
			}

			base := follower.base() + "/sessions/" + s.ID
			var sum summary
			doJSON(t, "GET", base, nil, http.StatusOK, &sum)
			p := ref.Progress()
			if sum.Labels != p.Explicit || sum.Implied != p.Implied ||
				sum.Informative != p.Informative || sum.Tuples != p.Total || sum.Done != ref.Done() {
				t.Fatalf("promoted summary %+v, reference progress %+v done=%v", sum, p, ref.Done())
			}
			if sum.Strategy != name {
				t.Fatalf("promoted strategy %q, want %q", sum.Strategy, name)
			}

			// Phase 2: finish on the promoted follower, still in lockstep.
			if !converged {
				drive(base, -1)
			}
			if !ref.Done() {
				t.Fatal("reference session did not converge with the promoted session")
			}
			var res struct {
				Done      bool   `json:"done"`
				Predicate string `json:"predicate"`
			}
			doJSON(t, "GET", base+"/result", nil, http.StatusOK, &res)
			if !res.Done {
				t.Error("promoted session not done")
			}
			if res.Predicate != ref.Result().String() {
				t.Errorf("final M_P on promoted node = %s, reference %s", res.Predicate, ref.Result().String())
			}
		})
	}
}

// TestClusterDrainUnderConcurrentTraffic races POST /v1/cluster/drain
// against mutating traffic: labelers and appenders hammer every
// session while repeated drains run the snapshot-all + sync barrier.
// Every drain must cover the whole fleet and clear the barrier, and
// once the traffic stops the follower must hold a replica of every
// session. CI runs this under -race.
func TestClusterDrainUnderConcurrentTraffic(t *testing.T) {
	nodes := startCluster(t, "nA", "nB")
	owner := nodes["nA"]

	const nSessions = 4
	ids := make([]string, nSessions)
	for i := range ids {
		var s summary
		doJSON(t, "POST", owner.base()+"/sessions",
			map[string]any{"csv": travelCSV, "strategy": "local-most-specific", "seed": 7},
			http.StatusCreated, &s)
		ids[i] = s.ID
	}

	// post fires a mutating request and drains the response; statuses
	// are deliberately not asserted — concurrent labels can lose races
	// (already answered, implied meanwhile) and that is fine, the test
	// is about drain's snapshot capture staying consistent under fire.
	post := func(url string, body any) {
		data, err := json.Marshal(body)
		if err != nil {
			return
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		base := owner.base() + "/sessions/" + id
		wg.Add(2)
		// Labeler: the next/label write-lock path.
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/next")
				if err != nil {
					continue
				}
				var n next
				json.NewDecoder(resp.Body).Decode(&n)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if n.Done || n.Tuple == nil {
					continue // appends may revive the dialogue
				}
				label := "skip"
				if i%3 != 2 {
					label = [2]string{"+", "-"}[i%2]
				}
				post(base+"/label", map[string]any{"index": n.Tuple.Index, "label": label})
			}
		}()
		// Appender: the tuple-ingestion write path.
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				post(base+"/tuples", map[string]any{"rows": [][]string{
					{fmt.Sprintf("City%d", i), "Lille", "AF", "NYC", "AA"},
				}})
			}
		}()
	}

	for round := 0; round < 5; round++ {
		var dr struct {
			Sessions    int  `json:"sessions"`
			Snapshotted int  `json:"snapshotted"`
			Synced      bool `json:"synced"`
		}
		doJSON(t, "POST", owner.base()+"/cluster/drain", nil, http.StatusOK, &dr)
		if dr.Sessions != nSessions || dr.Snapshotted != dr.Sessions || !dr.Synced {
			t.Fatalf("drain round %d = %+v, want %d/%d sessions snapshotted and synced",
				round, dr, nSessions, nSessions)
		}
	}
	close(stop)
	wg.Wait()

	quiesce(t, owner)
	var h healthz
	doJSON(t, "GET", nodes["nB"].ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Role == nil || h.Role.Replicas != nSessions {
		t.Fatalf("follower healthz role = %+v, want %d replicas", h.Role, nSessions)
	}
}

// TestClusterRedirectsToOwner pins the HTTP ownership contract: a
// request to the wrong node answers 307 with Location and X-Jim-Owner
// naming the owner and the not_owner envelope in the body, and a
// redirect-following client lands on the owner transparently.
func TestClusterRedirectsToOwner(t *testing.T) {
	nodes := startCluster(t, "nA", "nB")

	var s summary
	doJSON(t, "POST", nodes["nA"].base()+"/sessions",
		map[string]any{"csv": travelCSV, "strategy": "local-most-specific"}, http.StatusCreated, &s)

	// The session was allocated on nA, so nA owns it; ask nB.
	wrong := nodes["nB"]
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Get(wrong.base() + "/sessions/" + s.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status = %d, want 307", resp.StatusCode)
	}
	ownerHTTP := strings.TrimPrefix(nodes["nA"].ts.URL, "http://")
	if got := resp.Header.Get("X-Jim-Owner"); got != "nA="+ownerHTTP {
		t.Errorf("X-Jim-Owner = %q, want %q", got, "nA="+ownerHTTP)
	}
	wantLoc := nodes["nA"].base() + "/sessions/" + s.ID
	if got := resp.Header.Get("Location"); got != wantLoc {
		t.Errorf("Location = %q, want %q", got, wantLoc)
	}
	var e errBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != string(jim.CodeNotOwner) {
		t.Errorf("envelope code = %q, want %q", e.Error.Code, jim.CodeNotOwner)
	}

	// A default client follows the 307 to the owner and succeeds —
	// DELETE included, so every session verb honors the contract.
	var sum summary
	doJSON(t, "GET", wrong.base()+"/sessions/"+s.ID, nil, http.StatusOK, &sum)
	if sum.ID != s.ID {
		t.Fatalf("followed redirect returned session %q, want %q", sum.ID, s.ID)
	}
	doJSON(t, "DELETE", wrong.base()+"/sessions/"+s.ID, nil, http.StatusNoContent, nil)
}

// TestClusterWireNotOwner pins the wire-protocol side of the same
// contract: ops on a non-owned session fail with CodeNotOwner and a
// "nodeID=address" message the client can redial from.
func TestClusterWireNotOwner(t *testing.T) {
	nodes := startCluster(t, "nA", "nB")
	var s summary
	doJSON(t, "POST", nodes["nA"].base()+"/sessions",
		map[string]any{"csv": travelCSV, "strategy": "local-most-specific"}, http.StatusCreated, &s)

	err := nodes["nB"].srv.WireDelete(s.ID)
	if jim.CodeOf(err) != jim.CodeNotOwner {
		t.Fatalf("WireDelete on non-owner: %v, want %s", err, jim.CodeNotOwner)
	}
	var je *jim.Error
	if !errors.As(err, &je) {
		t.Fatalf("error %v is not a *jim.Error", err)
	}
	ownerHTTP := strings.TrimPrefix(nodes["nA"].ts.URL, "http://")
	if je.Message != "nA="+ownerHTTP {
		t.Errorf("NOT_OWNER message = %q, want %q (no wire addr configured, falls back to http)",
			je.Message, "nA="+ownerHTTP)
	}
}

// TestHealthzSingleNode pins the probe outside cluster mode: always
// 200, no cluster block, store stats present.
func TestHealthzSingleNode(t *testing.T) {
	ts := newTestServer(t)
	var h struct {
		Status  string `json:"status"`
		Cluster bool   `json:"cluster"`
		Store   struct {
			Backend string `json:"backend"`
		} `json:"store"`
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" || h.Cluster || h.Store.Backend != "mem" {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestHealthzClusterRoles pins the failover-detection signal: the
// owner reports its sessions, the follower reports replicas, and
// promotion moves the counts.
func TestHealthzClusterRoles(t *testing.T) {
	nodes := startCluster(t, "nA", "nB")
	var s summary
	doJSON(t, "POST", nodes["nA"].base()+"/sessions",
		map[string]any{"csv": travelCSV, "strategy": "local-most-specific"}, http.StatusCreated, &s)
	quiesce(t, nodes["nA"])

	var hA, hB healthz
	doJSON(t, "GET", nodes["nA"].ts.URL+"/healthz", nil, http.StatusOK, &hA)
	doJSON(t, "GET", nodes["nB"].ts.URL+"/healthz", nil, http.StatusOK, &hB)
	if hA.Node != "nA" || !hA.Cluster || hA.Role.OwnedSessions != 1 {
		t.Fatalf("owner healthz = %+v", hA)
	}
	if hB.Role.Replicas != 1 || hB.Replication.AppliedSnapshots == 0 {
		t.Fatalf("follower healthz = %+v", hB)
	}

	nodes["nA"].kill()
	doJSON(t, "POST", nodes["nB"].base()+"/cluster/promote",
		map[string]any{"node": "nA"}, http.StatusOK, nil)
	doJSON(t, "GET", nodes["nB"].ts.URL+"/healthz", nil, http.StatusOK, &hB)
	if hB.Role.OwnedSessions != 1 || hB.Role.Replicas != 0 || hB.Role.PromotedSessions != 1 {
		t.Fatalf("post-promotion healthz = %+v", hB)
	}

	var cl struct {
		Self   string            `json:"self"`
		Alive  []string          `json:"alive"`
		Failed map[string]string `json:"failed"`
	}
	doJSON(t, "GET", nodes["nB"].base()+"/cluster", nil, http.StatusOK, &cl)
	if cl.Self != "nB" || len(cl.Alive) != 1 || cl.Failed["nA"] != "nB" {
		t.Fatalf("cluster view = %+v", cl)
	}
}

// TestHealthzSyncReportsDrainedQueue pins the replication barrier's
// single contract: a /healthz?sync=1 reply that says synced reports
// zero queued events. Each round ships a burst of append events and
// hits the barrier at once, while the pump is still draining the
// burst — the window in which counters read before the barrier
// reported the lag it was about to wait out.
func TestHealthzSyncReportsDrainedQueue(t *testing.T) {
	nodes := startCluster(t, "nA", "nB")
	owner := nodes["nA"]
	var s summary
	doJSON(t, "POST", owner.base()+"/sessions",
		map[string]any{"csv": travelCSV, "strategy": "local-most-specific"}, http.StatusCreated, &s)
	row := [][]string{{"Oslo", "Rome", "SK", "Rome", "SK"}}
	for round := 0; round < 200; round++ {
		for k := 0; k < 16; k++ {
			if _, err := owner.srv.WireAppend(s.ID, row); err != nil {
				t.Fatalf("round %d: append: %v", round, err)
			}
		}
		quiesce(t, owner)
	}
}
