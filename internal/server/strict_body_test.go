package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// strictBodyCase is one body of a strict-decoding table test: the
// status it must get and, for a rejection, a fragment of the message.
type strictBodyCase struct {
	name    string
	body    string
	status  int
	message string
}

// strictBodyCases appends json.Unmarshal's trailing-data and empty-body
// rejections to valid, a body the endpoint accepts with status ok.
func strictBodyCases(valid string, ok int) []strictBodyCase {
	return []strictBodyCase{
		{"one value", valid, ok, ""},
		{"trailing whitespace", valid + "\n \t\n", ok, ""},
		{"second value", valid + valid, http.StatusBadRequest, "invalid character '{' after top-level value"},
		{"trailing junk", valid + " x", http.StatusBadRequest, "invalid character 'x' after top-level value"},
		{"empty", "", http.StatusBadRequest, "decoding request: unexpected end of JSON input"},
	}
}

// sessionCount reads the number of live sessions.
func sessionCount(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	var l struct {
		Total int `json:"total"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &l)
	return l.Total
}

// runStrictBody posts each case to url and checks status and envelope
// (body_too_large for a 413, bad_input for any other rejection);
// effect reads the server state the request would change, which must
// not move for a rejected body.
func runStrictBody(t *testing.T, url string, cases []strictBodyCase, effect func() int) {
	t.Helper()
	for _, c := range cases {
		before := effect()
		status, e := postRaw(t, url, c.body)
		if status != c.status {
			t.Fatalf("%s: status %d, envelope %+v; want %d", c.name, status, e, c.status)
		}
		if c.status >= 400 {
			code := "bad_input"
			if c.status == http.StatusRequestEntityTooLarge {
				code = "body_too_large"
			}
			if e.Error.Code != code || !strings.Contains(e.Error.Message, c.message) {
				t.Fatalf("%s: envelope %+v; want %s with %q", c.name, e, code, c.message)
			}
			if after := effect(); after != before {
				t.Fatalf("%s: rejected body changed the server: %d -> %d", c.name, before, after)
			}
		}
	}
}

// TestCreateRejectsTrailingData holds the POST /v1/sessions body to
// exactly one JSON value: a second value or junk after the first is
// bad_input and creates nothing.
func TestCreateRejectsTrailingData(t *testing.T) {
	ts := newTestServer(t)
	valid, err := json.Marshal(map[string]any{"csv": travelCSV, "strategy": "lookahead-maxmin"})
	if err != nil {
		t.Fatal(err)
	}
	runStrictBody(t, ts.URL+"/v1/sessions", strictBodyCases(string(valid), http.StatusCreated),
		func() int { return sessionCount(t, ts) })
}

// TestAppendRejectsTrailingData holds the POST /tuples body to exactly
// one JSON value: a batch followed by another batch or junk is
// bad_input and appends nothing.
func TestAppendRejectsTrailingData(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	tuples := func() int {
		var sum summary
		doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID, nil, http.StatusOK, &sum)
		return sum.Tuples
	}
	runStrictBody(t, ts.URL+"/v1/sessions/"+s.ID+"/tuples",
		strictBodyCases(`{"rows":[["Rome","Oslo","AZ","Rome","AZ"]]}`, http.StatusOK), tuples)
}

// capCases are strictBodyCases for a create or append body under a
// body cap of limit bytes, plus the same body padded with trailing
// whitespace to exactly the cap (accepted) and one byte past it
// (body_too_large). The bodies take the decoders' fast path, so the
// cap and the one-value rule hold there, not only in json.Unmarshal.
func capCases(valid string, ok, limit int) []strictBodyCase {
	pad := func(n int) string { return valid + strings.Repeat(" ", n-len(valid)) }
	return append(strictBodyCases(valid, ok),
		strictBodyCase{"at the cap", pad(limit), ok, ""},
		strictBodyCase{"past the cap", pad(limit + 1), http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", limit)})
}

// TestCreateAndAppendBodyCap holds POST /v1/sessions and POST /tuples
// to Config.MaxBodyBytes and to exactly one JSON value on the fast
// path: a body past the cap is body_too_large and changes nothing,
// trailing data is bad_input.
func TestCreateAndAppendBodyCap(t *testing.T) {
	const limit = 2048
	ts := httptest.NewServer(server.NewWith(server.Config{MaxBodyBytes: limit}).Handler())
	t.Cleanup(ts.Close)
	create, err := json.Marshal(map[string]any{"csv": travelCSV, "strategy": "lookahead-maxmin", "seed": 4})
	if err != nil {
		t.Fatal(err)
	}
	runStrictBody(t, ts.URL+"/v1/sessions", capCases(string(create), http.StatusCreated, limit),
		func() int { return sessionCount(t, ts) })

	s := createSession(t, ts, "lookahead-maxmin")
	tuples := func() int {
		var sum summary
		doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID, nil, http.StatusOK, &sum)
		return sum.Tuples
	}
	appendBody := `{"rows":[["Rome","Oslo","AZ","Rome","AZ"],["Köln","Oslo\n","\u0041Z","K\u00f6ln","AZ"]]}`
	runStrictBody(t, ts.URL+"/v1/sessions/"+s.ID+"/tuples", capCases(appendBody, http.StatusOK, limit), tuples)
}

// TestImportRejectsTrailingData holds the POST /v1/sessions/import
// body — an exported session file — to exactly one JSON value.
func TestImportRejectsTrailingData(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	resp, err := http.Get(ts.URL + "/v1/sessions/" + s.ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	exported, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cases := strictBodyCases(strings.TrimSpace(string(exported)), http.StatusCreated)
	// session.Load wraps the decode error in its own prefix.
	cases[len(cases)-1].message = "session: decoding: unexpected end of JSON input"
	runStrictBody(t, ts.URL+"/v1/sessions/import", cases, func() int { return sessionCount(t, ts) })
}

// clusterBodyCases are strictBodyCases for an operator failover body
// plus an oversized copy of it, with every rejection ordered before the
// accepted bodies: while the rejections run, valid would still change
// the node's view, so a decoder that acts on any prefix of the body
// shows up as a moved failed-node set.
func clusterBodyCases(valid string) []strictBodyCase {
	cases := strictBodyCases(valid, http.StatusOK)
	oversize := strictBodyCase{"oversize", strings.Replace(valid, ":", ":"+strings.Repeat(" ", 8192), 1),
		http.StatusRequestEntityTooLarge, "request body exceeds 4096 bytes"}
	return append(append(cases[2:], oversize), cases[:2]...)
}

// failedNodes reads how many peers n's membership view marks failed.
func failedNodes(t *testing.T, n *clusterNode) int {
	t.Helper()
	var view struct {
		Failed map[string]string `json:"failed"`
	}
	doJSON(t, "GET", n.base()+"/cluster", nil, http.StatusOK, &view)
	return len(view.Failed)
}

// TestPromoteRejectsTrailingData holds the POST /v1/cluster/promote
// body to exactly one JSON value under Config.MaxBodyBytes: a second
// value, junk or an oversized body is rejected and fails no node.
func TestPromoteRejectsTrailingData(t *testing.T) {
	n1 := startClusterWith(t, server.Config{MaxBodyBytes: 4096}, "n1", "n2", "n3")["n1"]
	failed := func() int { return failedNodes(t, n1) }
	runStrictBody(t, n1.base()+"/cluster/promote", clusterBodyCases(`{"node":"n2"}`), failed)
	if n := failed(); n != 1 {
		t.Fatalf("failed nodes after the accepted promote = %d, want 1", n)
	}
}

// TestRejoinRejectsTrailingData holds the POST /v1/cluster/rejoin body
// to the same rule: a rejected body leaves the failed node failed.
func TestRejoinRejectsTrailingData(t *testing.T) {
	n1 := startClusterWith(t, server.Config{MaxBodyBytes: 4096}, "n1", "n2", "n3")["n1"]
	doJSON(t, "POST", n1.base()+"/cluster/promote", map[string]any{"node": "n2"}, http.StatusOK, nil)
	failed := func() int { return failedNodes(t, n1) }
	runStrictBody(t, n1.base()+"/cluster/rejoin", clusterBodyCases(`{"node":"n2"}`), failed)
	if n := failed(); n != 0 {
		t.Fatalf("failed nodes after the accepted rejoin = %d, want 0", n)
	}
}
