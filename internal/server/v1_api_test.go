package server_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	jim "repro"
	"repro/internal/server"
	"repro/internal/strategy"
)

// TestV1Pagination checks GET /v1/sessions pages: deterministic id
// order, a default and a maximum page size, and stable windows.
func TestV1Pagination(t *testing.T) {
	ts := newTestServer(t)
	const n = 5
	ids := make([]string, n)
	for i := range ids {
		ids[i] = createSession(t, ts, "").ID
	}

	var page listBody
	doJSON(t, "GET", ts.URL+"/v1/sessions?limit=2", nil, http.StatusOK, &page)
	if page.Total != n || page.Limit != 2 || page.Offset != 0 || len(page.Sessions) != 2 {
		t.Fatalf("first page = %+v", page)
	}
	if page.Sessions[0].ID != ids[0] || page.Sessions[1].ID != ids[1] {
		t.Errorf("first page ids = %s,%s want %s,%s",
			page.Sessions[0].ID, page.Sessions[1].ID, ids[0], ids[1])
	}

	doJSON(t, "GET", ts.URL+"/v1/sessions?limit=2&offset=4", nil, http.StatusOK, &page)
	if len(page.Sessions) != 1 || page.Sessions[0].ID != ids[4] {
		t.Errorf("last page = %+v", page)
	}

	// Offset past the end: empty page, never an error.
	doJSON(t, "GET", ts.URL+"/v1/sessions?offset=100", nil, http.StatusOK, &page)
	if len(page.Sessions) != 0 || page.Total != n {
		t.Errorf("beyond-end page = %+v", page)
	}

	// Default limit applies when none is named.
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &page)
	if page.Limit != 50 {
		t.Errorf("default limit = %d, want 50", page.Limit)
	}

	// A limit beyond the cap clamps instead of failing.
	doJSON(t, "GET", ts.URL+"/v1/sessions?limit=99999", nil, http.StatusOK, &page)
	if page.Limit != 500 {
		t.Errorf("clamped limit = %d, want 500", page.Limit)
	}

	wantError(t, "GET", ts.URL+"/v1/sessions?limit=0", nil, http.StatusBadRequest, "bad_input")
	wantError(t, "GET", ts.URL+"/v1/sessions?limit=x", nil, http.StatusBadRequest, "bad_input")
	wantError(t, "GET", ts.URL+"/v1/sessions?offset=-1", nil, http.StatusBadRequest, "bad_input")
}

// TestV1Strategies checks the discovery endpoint lists the registry
// with the default marked.
func TestV1Strategies(t *testing.T) {
	ts := newTestServer(t)
	var resp struct {
		Strategies []struct {
			Name      string `json:"name"`
			Heuristic bool   `json:"heuristic"`
		} `json:"strategies"`
		Default string `json:"default"`
	}
	doJSON(t, "GET", ts.URL+"/v1/strategies", nil, http.StatusOK, &resp)
	if resp.Default != jim.DefaultStrategy {
		t.Errorf("default = %q", resp.Default)
	}
	names := map[string]bool{}
	for _, s := range resp.Strategies {
		names[s.Name] = true
		if wantHeuristic := s.Name != "optimal"; s.Heuristic != wantHeuristic {
			t.Errorf("strategy %s heuristic = %v", s.Name, s.Heuristic)
		}
	}
	for _, want := range strategy.Names() {
		if !names[want] {
			t.Errorf("strategy %q missing from discovery", want)
		}
	}
	// Every advertised strategy must be accepted by create.
	for _, s := range resp.Strategies {
		if s.Name == "optimal" {
			continue // exponential; exercised on tiny instances elsewhere
		}
		createSession(t, ts, s.Name)
	}
}

// TestUnversionedRoutesGone checks that /v1 is the only API surface:
// for every registered route, the same path without the version prefix
// answers 404 and carries no deprecation marker, while GET /healthz —
// unversioned on purpose — still answers.
func TestUnversionedRoutesGone(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s := createSession(t, ts, "")

	for _, rt := range srv.Routes() {
		method, path, _ := strings.Cut(rt, " ")
		path = strings.ReplaceAll(strings.TrimPrefix(path, "/v1"), "{id}", s.ID)
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", method, path, resp.StatusCode)
		}
		for _, h := range []string{"Deprecation", "Link"} {
			if v := resp.Header.Get(h); v != "" {
				t.Errorf("%s %s: %s header %q", method, path, h, v)
			}
		}
	}
	// Nothing above reached a handler: the session is untouched.
	var got summary
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID, nil, http.StatusOK, &got)
	if got.Labels != 0 {
		t.Errorf("session changed by unversioned requests: %+v", got)
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
}

// TestErrorEnvelopeShape pins the wire shape of failures across
// endpoint families: every error is {"error":{"code","message"}} with
// a status derived from the code.
func TestErrorEnvelopeShape(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "")

	cases := []struct {
		method, path string
		body         any
		status       int
		code         string
	}{
		{"POST", "/v1/sessions", map[string]any{"csv": ""}, 400, "bad_input"},
		{"POST", "/v1/sessions", map[string]any{"csv": travelCSV, "strategy": "zzz"}, 400, "unknown_strategy"},
		{"GET", "/v1/sessions/none", nil, 404, "not_found"},
		{"POST", "/v1/sessions/" + s.ID + "/label", map[string]any{"index": -3, "label": "+"}, 400, "out_of_range"},
		{"POST", "/v1/sessions/" + s.ID + "/label", map[string]any{"index": 0, "label": "??"}, 400, "bad_input"},
		{"POST", "/v1/sessions/" + s.ID + "/tuples", map[string]any{"rows": [][]string{{"just", "two"}}}, 409, "schema_mismatch"},
		{"POST", "/v1/sessions/" + s.ID + "/tuples", map[string]any{}, 400, "bad_input"},
		{"POST", "/v1/sessions/" + s.ID + "/tuples",
			map[string]any{"csv": "x", "rows": [][]string{{"a"}}}, 400, "bad_input"},
	}
	for _, tc := range cases {
		e := wantError(t, tc.method, ts.URL+tc.path, tc.body, tc.status, tc.code)
		if e.Error.Message == "" {
			t.Errorf("%s %s: empty message", tc.method, tc.path)
		}
	}
}

// TestSkipAfterDone pins the session_done contract: once converged,
// skip is refused with 409/session_done while a consistent confirming
// label is still accepted (it pins an implied label down explicitly).
func TestSkipAfterDone(t *testing.T) {
	ts := newTestServer(t)
	var s growableSummary
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"csv": "a,b\n1,1\n"}, http.StatusCreated, &s)
	if !s.Done {
		t.Fatalf("single-tuple all-equal instance should converge at creation: %+v", s)
	}
	wantError(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 0, "label": "skip"}, http.StatusConflict, "session_done")
	var lr labelResp
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 0, "label": "+"}, http.StatusOK, &lr)
}
