package server_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

// clusterCall sends one request with a raw body and returns the
// status and the decoded error envelope (zero on success).
func clusterCall(t *testing.T, method, url, body string) (int, errBody) {
	t.Helper()
	if method == "POST" {
		return postRaw(t, url, body)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errBody
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("GET %s: decoding error envelope: %v", url, err)
		}
	}
	return resp.StatusCode, e
}

// TestClusterRoutesContract pins the validation replies of the cluster
// endpoints: outside cluster mode every /v1/cluster* route is refused,
// and in cluster mode promote, rejoin and probe name the node they
// could not act on, each with its own message for this node's own id.
func TestClusterRoutesContract(t *testing.T) {
	single := newTestServer(t)
	routes := []struct{ method, path string }{
		{"GET", "/cluster"},
		{"GET", "/cluster/probe?node=n2"},
		{"POST", "/cluster/promote"},
		{"POST", "/cluster/rejoin"},
		{"POST", "/cluster/rebalance"},
		{"POST", "/cluster/drain"},
	}
	for _, rt := range routes {
		status, e := clusterCall(t, rt.method, single.URL+"/v1"+rt.path, `{"node":"n2"}`)
		if status != http.StatusBadRequest || e.Error.Code != "bad_input" ||
			e.Error.Message != "server is not running in cluster mode" {
			t.Errorf("%s %s outside cluster mode: %d %+v", rt.method, rt.path, status, e)
		}
	}

	n1 := startCluster(t, "n1", "n2", "n3")["n1"]
	cases := []struct {
		method, path, body, message string
	}{
		{"POST", "/cluster/promote", `{}`, "missing node"},
		{"POST", "/cluster/promote", `{"node":"n1"}`, "cannot mark self (n1) failed"},
		{"POST", "/cluster/promote", `{"node":"zz"}`, `cluster: unknown node "zz"`},
		{"POST", "/cluster/rejoin", `{}`, "missing node"},
		{"POST", "/cluster/rejoin", `{"node":"n1"}`, "cannot rejoin self (n1) via a peer endpoint"},
		{"POST", "/cluster/rejoin", `{"node":"zz"}`, `unknown node "zz"`},
		{"GET", "/cluster/probe", "", "missing node"},
		{"GET", "/cluster/probe?node=zz", "", `unknown node "zz"`},
	}
	for _, c := range cases {
		status, e := clusterCall(t, c.method, n1.base()+c.path, c.body)
		if status != http.StatusBadRequest || e.Error.Code != "bad_input" || e.Error.Message != c.message {
			t.Errorf("%s %s %s: %d %+v; want 400 bad_input %q", c.method, c.path, c.body, status, e, c.message)
		}
	}
	if n := failedNodes(t, n1); n != 0 {
		t.Fatalf("rejected cluster calls failed %d nodes", n)
	}
}

// TestHealthzSyncParsesBool runs the replication barrier only for a
// sync value that parses true: ?sync=0 and ?sync=false are plain
// probes with no synced field.
func TestHealthzSyncParsesBool(t *testing.T) {
	n := startCluster(t, "nA", "nB")["nA"]
	for _, v := range []string{"0", "false", "1", "true"} {
		var h healthz
		doJSON(t, "GET", n.ts.URL+"/healthz?sync="+v, nil, http.StatusOK, &h)
		want := v == "1" || v == "true"
		if got := h.Replication.Synced != nil; got != want {
			t.Errorf("?sync=%s: synced field present = %v, want %v", v, got, want)
		}
	}
}

// failingSnapshots is a disk store whose snapshots always fail.
type failingSnapshots struct{ *store.Disk }

func (failingSnapshots) Snapshot(string, store.Snapshot) error { return errors.New("disk full") }

// logRecorder collects a node's cluster log lines.
type logRecorder struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
	l.t.Log(line)
}

func (l *logRecorder) has(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// startPairOnDisk brings up cluster nodes nA (mem store) and nB, whose
// durable store is st and whose cluster log goes to logfB.
func startPairOnDisk(t *testing.T, st store.Store, logfB func(string, ...any)) (a, b *clusterNode) {
	t.Helper()
	srvA := server.New()
	srvB := server.NewWith(server.Config{Store: st})
	tsA, tsB := httptest.NewServer(srvA.Handler()), httptest.NewServer(srvB.Handler())
	lnA, lnB := listenRepl(t), listenRepl(t)
	peers := []cluster.Node{
		{ID: "nA", HTTP: strings.TrimPrefix(tsA.URL, "http://"), Repl: lnA.Addr().String()},
		{ID: "nB", HTTP: strings.TrimPrefix(tsB.URL, "http://"), Repl: lnB.Addr().String()},
	}
	a = &clusterNode{id: "nA", srv: srvA, ts: tsA, replLn: lnA}
	b = &clusterNode{id: "nB", srv: srvB, ts: tsB, replLn: lnB}
	for _, n := range []*clusterNode{a, b} {
		logf := t.Logf
		if n == b {
			logf = logfB
		}
		if err := n.srv.EnableCluster(server.ClusterOptions{Self: n.id, Peers: peers, Logf: logf}); err != nil {
			t.Fatal(err)
		}
		n.repl = &cluster.ReplServer{Applier: n.srv, Logf: logf}
		go n.repl.Serve(n.replLn)
		t.Cleanup(n.kill)
	}
	return a, b
}

func newDisk(t *testing.T) *store.Disk {
	t.Helper()
	disk, err := store.NewDisk(store.DiskOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk
}

type promoteReply struct {
	AdoptedSessions int `json:"adopted_sessions"`
}

// TestClusterAdoptSnapshotFailureLogged holds a failed adoption
// snapshot to the rule that nothing is swallowed: the promotion still
// adopts the session, /stats counts the persist error, and the log
// names the operation and the session.
func TestClusterAdoptSnapshotFailureLogged(t *testing.T) {
	logs := &logRecorder{t: t}
	a, b := startPairOnDisk(t, failingSnapshots{newDisk(t)}, logs.logf)

	var s summary
	doJSON(t, "POST", a.base()+"/sessions",
		map[string]any{"csv": travelCSV, "strategy": "local-most-specific"}, http.StatusCreated, &s)
	quiesce(t, a)
	a.kill()
	var promoted promoteReply
	doJSON(t, "POST", b.base()+"/cluster/promote", map[string]any{"node": "nA"}, http.StatusOK, &promoted)
	if promoted.AdoptedSessions != 1 {
		t.Fatalf("promote adopted %d sessions, want 1", promoted.AdoptedSessions)
	}
	doJSON(t, "GET", b.base()+"/sessions/"+s.ID, nil, http.StatusOK, nil)
	var stats struct {
		Store struct {
			PersistErrors int64 `json:"persist_errors"`
		} `json:"store"`
	}
	doJSON(t, "GET", b.base()+"/stats", nil, http.StatusOK, &stats)
	if stats.Store.PersistErrors != 1 {
		t.Errorf("persist_errors = %d, want 1", stats.Store.PersistErrors)
	}
	if want := "cluster: adopt " + s.ID + ": snapshot: disk full"; !logs.has(want) {
		t.Errorf("no log line %q", want)
	}
}

// heldSnapshots is a disk store whose snapshots of the held ids wait
// until release is closed, announcing each one on entered first.
type heldSnapshots struct {
	*store.Disk
	mu      sync.Mutex
	held    map[string]bool
	entered chan string
	release chan struct{}
}

func (h *heldSnapshots) Snapshot(id string, snap store.Snapshot) error {
	h.mu.Lock()
	hold := h.held[id]
	h.mu.Unlock()
	if hold {
		h.entered <- id
		<-h.release
	}
	return h.Disk.Snapshot(id, snap)
}

// TestClusterAdoptPublishesBeforeSnapshots promotes a node whose
// adoption snapshots are held on the disk. The view already routes the
// dead node's range here, so while those snapshots wait every adopted
// session must answer, and a create must get a fresh id rather than
// one an adoptee is about to claim.
func TestClusterAdoptPublishesBeforeSnapshots(t *testing.T) {
	const n = 4
	st := &heldSnapshots{Disk: newDisk(t), held: map[string]bool{},
		entered: make(chan string, n), release: make(chan struct{})}
	a, b := startPairOnDisk(t, st, t.Logf)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(st.release) }) }
	t.Cleanup(release) // runs before the node cleanups, which wait for handlers

	ids := map[string]bool{}
	for i := 0; i < n; i++ {
		var s summary
		doJSON(t, "POST", a.base()+"/sessions",
			map[string]any{"csv": travelCSV, "strategy": "local-most-specific"}, http.StatusCreated, &s)
		ids[s.ID] = true
	}
	quiesce(t, a)
	a.kill()
	st.mu.Lock()
	for id := range ids {
		st.held[id] = true
	}
	st.mu.Unlock()

	done := make(chan error, 1)
	var promoted promoteReply
	go func() {
		done <- callJSON("POST", b.base()+"/cluster/promote", map[string]any{"node": "nA"}, http.StatusOK, &promoted)
	}()
	select {
	case <-st.entered:
	case err := <-done:
		t.Fatalf("promote finished without snapshotting an adoptee: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no adoption snapshot started")
	}
	for id := range ids {
		if err := callJSON("GET", b.base()+"/sessions/"+id, nil, http.StatusOK, nil); err != nil {
			t.Errorf("adopted %s while its snapshots are pending: %v", id, err)
		}
	}
	// A create handed a held id would wait on that id's snapshot too;
	// bound the wait so such a collision fails instead of hanging.
	var fresh summary
	created := make(chan error, 1)
	go func() {
		created <- callJSON("POST", b.base()+"/sessions",
			map[string]any{"csv": travelCSV, "strategy": "local-most-specific"}, http.StatusCreated, &fresh)
	}()
	select {
	case err := <-created:
		if err != nil {
			t.Error(err)
		} else if ids[fresh.ID] {
			t.Errorf("create during adoption reused adopted id %s", fresh.ID)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatalf("create during adoption is stuck behind an adoptee's snapshot: %v", <-created)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if promoted.AdoptedSessions != n {
		t.Fatalf("promote adopted %d sessions, want %d", promoted.AdoptedSessions, n)
	}
	var list struct {
		Sessions []summary `json:"sessions"`
	}
	doJSON(t, "GET", b.base()+"/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != n+1 {
		t.Errorf("node lists %d sessions after adoption, want %d adopted + 1 created", len(list.Sessions), n)
	}
}

func listenRepl(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
