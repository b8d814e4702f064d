package main

// Multi-process cluster smoke: build the real binary, run a 3-node
// cluster as separate OS processes on loopback, SIGKILL one node
// mid-dialogue, promote its designated follower, and require the
// killed node's session to answer — with the same inferred predicate
// — on the survivor. This is the only test that exercises the flag
// wiring, the replication listener, and the promotion API end to end
// across real process boundaries; everything in-process lives in
// internal/server and internal/cluster/chaostest.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const smokeCSV = "From,To,By\nLille,Paris,train\nLille,Lyon,train\nParis,Lyon,car\nParis,Nice,plane\nLyon,Nice,car\n"

// freeAddr grabs an ephemeral loopback port and releases it for the
// child process to bind. Racy in principle, loopback-local in
// practice.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// logWriter forwards a child process's output to the test log line by
// line. Safe to write until exec.Cmd.Wait returns, which every path
// does before the test ends.
type logWriter struct {
	t      *testing.T
	prefix string
	mu     sync.Mutex
	buf    bytes.Buffer
}

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line)
			break
		}
		w.t.Logf("%s %s", w.prefix, line[:len(line)-1])
	}
	return len(p), nil
}

type smokeNode struct {
	id   string
	http string // host:port
	repl string
	cmd  *exec.Cmd
	dead bool
}

func (n *smokeNode) base() string { return "http://" + n.http + "/v1" }

func (n *smokeNode) kill(t *testing.T) {
	t.Helper()
	if n.dead {
		return
	}
	n.dead = true
	n.cmd.Process.Kill()
	n.cmd.Wait()
}

func smokeJSON(t *testing.T, client *http.Client, method, url string, body, out any, wantStatus int) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, resp.StatusCode, wantStatus, raw.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
}

func TestClusterSmokeMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke is not -short")
	}
	bin := filepath.Join(t.TempDir(), "jimserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	nodes := make([]*smokeNode, 3)
	for i := range nodes {
		nodes[i] = &smokeNode{
			id:   fmt.Sprintf("n%d", i+1),
			http: freeAddr(t),
			repl: freeAddr(t),
		}
	}
	peers := ""
	for i, n := range nodes {
		if i > 0 {
			peers += ","
		}
		peers += fmt.Sprintf("%s=%s||%s", n.id, n.http, n.repl)
	}
	dataRoot := t.TempDir()
	for _, n := range nodes {
		n.cmd = exec.Command(bin,
			"-addr", n.http,
			"-repl-addr", n.repl,
			"-node-id", n.id,
			"-cluster-peers", peers,
			"-store", "disk",
			"-data-dir", filepath.Join(dataRoot, n.id),
			"-fsync=false",
		)
		w := &logWriter{t: t, prefix: "[" + n.id + "]"}
		n.cmd.Stdout = w
		n.cmd.Stderr = w
		if err := n.cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", n.id, err)
		}
		n := n
		t.Cleanup(func() { n.kill(t) })
	}

	client := &http.Client{Timeout: 5 * time.Second}
	noFollow := &http.Client{
		Timeout:       5 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	waitUp := func(n *smokeNode) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := client.Get("http://" + n.http + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("%s never came up on %s", n.id, n.http)
	}
	for _, n := range nodes {
		waitUp(n)
	}

	// Creates are always local (disjoint id spaces per node), so a
	// session created on n1 is owned by n1 and replicates to n2, its
	// designated follower in sorted id order.
	var created struct {
		ID string `json:"id"`
	}
	smokeJSON(t, client, "POST", nodes[0].base()+"/sessions",
		map[string]any{"csv": smokeCSV, "strategy": "local-most-specific", "seed": 7},
		&created, http.StatusCreated)
	if created.ID == "" {
		t.Fatal("create returned no session id")
	}

	// A few dialogue steps so failover has real WAL history to carry:
	// propose-only first, then skip whatever is proposed.
	type stepResp struct {
		Done  bool `json:"done"`
		Tuple *struct {
			Index int `json:"index"`
		} `json:"tuple"`
	}
	var st stepResp
	stepURL := nodes[0].base() + "/sessions/" + created.ID + "/step"
	smokeJSON(t, client, "POST", stepURL, map[string]any{"k": 1}, &st, http.StatusOK)
	for i := 0; i < 3 && !st.Done && st.Tuple != nil; i++ {
		smokeJSON(t, client, "POST", stepURL,
			map[string]any{"index": st.Tuple.Index, "label": "skip", "k": 1}, &st, http.StatusOK)
	}

	var before struct {
		Predicate string `json:"predicate"`
	}
	smokeJSON(t, client, "GET", nodes[0].base()+"/sessions/"+created.ID+"/result", nil, &before, http.StatusOK)

	// Replication barrier: the follower must hold everything before
	// the kill is a fair test.
	var hz struct {
		Replication *struct {
			Synced *bool `json:"synced"`
			Ship   *struct {
				QueuedEvents int `json:"queued_events"`
			} `json:"ship"`
		} `json:"replication"`
	}
	smokeJSON(t, client, "GET", "http://"+nodes[0].http+"/healthz?sync=1", nil, &hz, http.StatusOK)
	if hz.Replication == nil || hz.Replication.Synced == nil || !*hz.Replication.Synced {
		t.Fatalf("n1 did not sync its replication stream before kill: %+v", hz.Replication)
	}

	nodes[0].kill(t)

	// Every survivor learns of the death; the designated follower (n2)
	// adopts the session.
	var promoted struct {
		PromotedTo      string `json:"promoted_to"`
		AdoptedSessions int    `json:"adopted_sessions"`
	}
	smokeJSON(t, client, "POST", nodes[1].base()+"/cluster/promote",
		map[string]any{"node": "n1"}, &promoted, http.StatusOK)
	if promoted.PromotedTo != "n2" || promoted.AdoptedSessions < 1 {
		t.Fatalf("promote on n2: %+v, want promoted_to n2 and >= 1 adopted", promoted)
	}
	smokeJSON(t, client, "POST", nodes[2].base()+"/cluster/promote",
		map[string]any{"node": "n1"}, &promoted, http.StatusOK)

	// The session answers on the follower with the state it had at the
	// kill, and the non-follower redirects there.
	var after struct {
		Predicate string `json:"predicate"`
	}
	smokeJSON(t, client, "GET", nodes[1].base()+"/sessions/"+created.ID+"/result", nil, &after, http.StatusOK)
	if after.Predicate != before.Predicate {
		t.Errorf("predicate diverged across failover:\n before %q\n after  %q", before.Predicate, after.Predicate)
	}
	resp, err := noFollow.Get(nodes[2].base() + "/sessions/" + created.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Errorf("n3 answered %d for an adopted session, want 307", resp.StatusCode)
	}
	if got, want := resp.Header.Get("X-Jim-Owner"), "n2="+nodes[1].http; got != want {
		t.Errorf("X-Jim-Owner = %q, want %q", got, want)
	}

	// The dialogue continues on the adopter.
	smokeJSON(t, client, "POST", nodes[1].base()+"/sessions/"+created.ID+"/step",
		map[string]any{"k": 1}, &st, http.StatusOK)

	var role struct {
		Role *struct {
			OwnedSessions    int   `json:"owned_sessions"`
			PromotedSessions int64 `json:"promoted_sessions"`
		} `json:"role"`
	}
	smokeJSON(t, client, "GET", "http://"+nodes[1].http+"/healthz", nil, &role, http.StatusOK)
	if role.Role == nil || role.Role.PromotedSessions < 1 {
		t.Errorf("n2 healthz after promote: %+v, want promoted_sessions >= 1", role.Role)
	}
}
