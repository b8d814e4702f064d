package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

const travelCSV = `From,To,Airline,City,Discount
Paris,Lille,AF,NYC,AA
Paris,Lille,AF,Paris,None
Paris,Lille,AF,Lille,AF
Lille,NYC,AA,NYC,AA
Lille,NYC,AA,Paris,None
Lille,NYC,AA,Lille,AF
NYC,Paris,AA,NYC,AA
NYC,Paris,AA,Paris,None
NYC,Paris,AA,Lille,AF
Paris,NYC,AF,NYC,AA
Paris,NYC,AF,Paris,None
Paris,NYC,AF,Lille,AF
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	if err := callJSON(method, url, body, wantStatus, out); err != nil {
		t.Fatal(err)
	}
}

// callJSON is doJSON for goroutines other than the test's own: it
// returns what went wrong instead of failing the test.
func callJSON(method, url string, body any, wantStatus int, out any) error {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding %s: %v", method, url, data, err)
		}
	}
	return nil
}

// errBody is the structured error envelope of the /v1 contract.
type errBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// wantError performs a request expected to fail and asserts the
// envelope carries the given code (the status is derived from it).
func wantError(t *testing.T, method, url string, body any, wantStatus int, wantCode string) errBody {
	t.Helper()
	var e errBody
	doJSON(t, method, url, body, wantStatus, &e)
	if e.Error.Code != wantCode {
		t.Errorf("%s %s: error code %q, want %q (message %q)", method, url, e.Error.Code, wantCode, e.Error.Message)
	}
	if e.Error.Message == "" {
		t.Errorf("%s %s: error envelope missing message", method, url)
	}
	return e
}

// listBody is one page of GET /v1/sessions.
type listBody struct {
	Sessions []summary `json:"sessions"`
	Total    int       `json:"total"`
	Limit    int       `json:"limit"`
	Offset   int       `json:"offset"`
}

type summary struct {
	ID          string   `json:"id"`
	Strategy    string   `json:"strategy"`
	Tuples      int      `json:"tuples"`
	Attributes  []string `json:"attributes"`
	Labels      int      `json:"labels"`
	Implied     int      `json:"implied"`
	Informative int      `json:"informative"`
	Done        bool     `json:"done"`
}

type next struct {
	Done  bool `json:"done"`
	Tuple *struct {
		Index  int               `json:"index"`
		Values map[string]string `json:"values"`
	} `json:"tuple"`
}

type labelResp struct {
	NewlyImplied []int  `json:"newly_implied"`
	Informative  int    `json:"informative"`
	Done         bool   `json:"done"`
	Progress     string `json:"progress"`
}

type result struct {
	Done       bool   `json:"done"`
	Atoms      string `json:"atoms"`
	SQL        string `json:"sql"`
	Certain    string `json:"certain"`
	Undecided  string `json:"undecided"`
	Consistent int    `json:"consistent_queries"`
}

func createSession(t *testing.T, ts *httptest.Server, strategy string) summary {
	t.Helper()
	var s summary
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"csv": travelCSV, "strategy": strategy},
		http.StatusCreated, &s)
	return s
}

func TestCreateSession(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "")
	if s.ID == "" || s.Tuples != 12 || len(s.Attributes) != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.Strategy != "lookahead-maxmin" {
		t.Errorf("default strategy = %q", s.Strategy)
	}
	if s.Done || s.Informative != 12 {
		t.Errorf("fresh session state = %+v", s)
	}
}

func TestCreateErrors(t *testing.T) {
	ts := newTestServer(t)
	wantError(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": ""},
		http.StatusBadRequest, "bad_input")
	wantError(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": travelCSV, "strategy": "bogus"},
		http.StatusBadRequest, "unknown_strategy")
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", resp.StatusCode)
	}
}

func TestUnknownSession(t *testing.T) {
	ts := newTestServer(t)
	wantError(t, "GET", ts.URL+"/v1/sessions/zzz", nil, http.StatusNotFound, "not_found")
	wantError(t, "GET", ts.URL+"/v1/sessions/zzz/next", nil, http.StatusNotFound, "not_found")
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/zzz", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown status = %d", resp.StatusCode)
	}
}

// TestDriveToConvergence runs a whole inference over HTTP: fetch next,
// answer per the Q2 goal oracle, until done; then check the result.
func TestDriveToConvergence(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	rel := workload.Travel()
	goal := workload.TravelQ2()

	questions := 0
	for {
		var n next
		doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &n)
		if n.Done {
			break
		}
		if n.Tuple == nil {
			t.Fatal("next returned neither done nor tuple")
		}
		questions++
		if questions > 12 {
			t.Fatal("server asked more questions than tuples")
		}
		label := "-"
		if core.Selects(goal, rel.Tuple(n.Tuple.Index)) {
			label = "+"
		}
		var lr labelResp
		doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
			map[string]any{"index": n.Tuple.Index, "label": label},
			http.StatusOK, &lr)
	}
	var res result
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/result", nil, http.StatusOK, &res)
	if !res.Done {
		t.Error("result not done")
	}
	if res.Atoms != "To=City ∧ Airline=Discount" {
		t.Errorf("atoms = %q", res.Atoms)
	}
	if !strings.Contains(res.SQL, `"To" = "City"`) {
		t.Errorf("sql = %q", res.SQL)
	}
	if res.Consistent != 1 {
		t.Errorf("consistent queries = %d, want 1", res.Consistent)
	}
	if res.Undecided != "" {
		t.Errorf("undecided = %q", res.Undecided)
	}
	if questions > 6 {
		t.Errorf("took %d questions; strategy should need few", questions)
	}
}

func TestLabelValidation(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "")
	wantError(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 99, "label": "+"}, http.StatusBadRequest, "out_of_range")
	wantError(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 0, "label": "maybe"}, http.StatusBadRequest, "bad_input")
	// Conflicting label: (12)+ implies (3)+; labeling (3)- conflicts.
	var lr labelResp
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 11, "label": "+"}, http.StatusOK, &lr)
	e := wantError(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 2, "label": "-"}, http.StatusConflict, "inconsistent_label")
	if !strings.Contains(e.Error.Message, "inconsistent") {
		t.Errorf("conflict message = %q", e.Error.Message)
	}
	// Relabeling an explicit label is its own failure mode: 422.
	wantError(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 11, "label": "-"}, http.StatusUnprocessableEntity, "already_labeled")
}

func TestSkipDefersTuple(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	var n1 next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &n1)
	var lr labelResp
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": n1.Tuple.Index, "label": "skip"}, http.StatusOK, &lr)
	var n2 next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &n2)
	if n2.Tuple == nil {
		t.Fatal("no alternative proposed after skip")
	}
	if n2.Tuple.Index == n1.Tuple.Index {
		t.Error("skip did not defer the tuple")
	}
}

func TestTopK(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	var out struct {
		Tuples []struct {
			Index int `json:"index"`
		} `json:"tuples"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/topk?k=4", nil, http.StatusOK, &out)
	if len(out.Tuples) != 4 {
		t.Errorf("topk returned %d", len(out.Tuples))
	}
	seen := map[int]bool{}
	for _, tv := range out.Tuples {
		if seen[tv.Index] {
			t.Error("duplicate tuple in topk")
		}
		seen[tv.Index] = true
	}
	wantError(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/topk?k=0", nil, http.StatusBadRequest, "bad_input")
	wantError(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/topk?k=x", nil, http.StatusBadRequest, "bad_input")
}

func TestListAndDelete(t *testing.T) {
	ts := newTestServer(t)
	a := createSession(t, ts, "")
	b := createSession(t, ts, "random")
	var list listBody
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if list.Total != 2 || len(list.Sessions) != 2 || list.Sessions[0].ID > list.Sessions[1].ID {
		t.Errorf("list = %+v", list)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+a.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete status = %d", resp.StatusCode)
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if list.Total != 1 || len(list.Sessions) != 1 || list.Sessions[0].ID != b.ID {
		t.Errorf("after delete list = %+v", list)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	var lr labelResp
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 2, "label": "+"}, http.StatusOK, &lr)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + s.ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	exported, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	resp, err = http.Post(ts.URL+"/v1/sessions/import", "application/json", bytes.NewReader(exported))
	if err != nil {
		t.Fatal(err)
	}
	var imported summary
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import status = %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &imported); err != nil {
		t.Fatal(err)
	}
	if imported.Labels != 1 || imported.Tuples != 12 {
		t.Errorf("imported = %+v", imported)
	}
	if imported.Strategy != "lookahead-maxmin" {
		t.Errorf("imported strategy = %q", imported.Strategy)
	}
	// Corrupt import rejected.
	resp, err = http.Post(ts.URL+"/v1/sessions/import", "application/json", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt import status = %d", resp.StatusCode)
	}
}

func TestResultMidSession(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "")
	var lr labelResp
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": 2, "label": "+"}, http.StatusOK, &lr)
	var res result
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/result", nil, http.StatusOK, &res)
	if res.Done {
		t.Error("one label should not converge")
	}
	// After (3)+: M_P = Q2, 4 consistent queries, nothing certain yet.
	if res.Consistent != 4 {
		t.Errorf("consistent = %d, want 4", res.Consistent)
	}
	if res.Certain != "" {
		t.Errorf("certain = %q, want empty", res.Certain)
	}
	if res.Undecided == "" {
		t.Error("undecided should list Q2's atoms")
	}
}

func TestConcurrentRequestsOneSession(t *testing.T) {
	// Many goroutines label the same session concurrently; the server
	// must serialize them. Every tuple gets one goroutine posting a
	// Q2-consistent label; duplicates and implied conflicts surface as
	// 409s, which is acceptable — what matters is that nothing races
	// and the final state is consistent and converged.
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	rel := workload.Travel()
	goal := workload.TravelQ2()
	errs := make(chan error, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		go func(i int) {
			errs <- func() error {
				label := "-"
				if core.Selects(goal, rel.Tuple(i)) {
					label = "+"
				}
				data, _ := json.Marshal(map[string]any{"index": i, "label": label})
				resp, err := http.Post(ts.URL+"/v1/sessions/"+s.ID+"/label", "application/json", bytes.NewReader(data))
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict &&
					resp.StatusCode != http.StatusUnprocessableEntity {
					return fmt.Errorf("tuple %d: status %d", i, resp.StatusCode)
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < rel.Len(); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	var res result
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/result", nil, http.StatusOK, &res)
	if !res.Done {
		t.Error("session not converged after labeling every tuple")
	}
	if res.Atoms != "To=City ∧ Airline=Discount" {
		t.Errorf("atoms = %q", res.Atoms)
	}
}

// TestConcurrentSessions runs n goroutines against one server at once,
// each on its own session, for each input: a create and one label, and
// a whole dialogue driven to convergence over /step or wire with one
// streamed append (concurrentDialogue). Under -race it is the check
// that many users deep in their dialogues share the server safely.
func TestConcurrentSessions(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(base, wireAddr string, g int) error
	}{
		{"create+label", createAndLabel},
		{"dialogue", concurrentDialogue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New()
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			_, wireAddr := startWire(t, srv)
			const n = 8
			errs := make(chan error, n)
			for g := 0; g < n; g++ {
				go func(g int) { errs <- tc.run(ts.URL, wireAddr, g) }(g)
			}
			for g := 0; g < n; g++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
			var list listBody
			doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &list)
			if list.Total != n {
				t.Errorf("sessions after concurrent creates = %d, want %d", list.Total, n)
			}
		})
	}
}

// createAndLabel creates a travel session and labels tuple 3.
func createAndLabel(base, _ string, _ int) error {
	var s summary
	if err := callJSON("POST", base+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &s); err != nil {
		return err
	}
	return callJSON("POST", base+"/v1/sessions/"+s.ID+"/label", map[string]any{"index": 2, "label": "+"}, http.StatusOK, nil)
}

// concurrentDialogue drives session g from create to convergence,
// answering from a synthetic instance's planted goal: even g over
// POST /step, odd g over the wire protocol. A quarter of the instance
// is there at create; the rest arrives in one append after the second
// answer (or at convergence, if that comes first). The converged
// predicate must select exactly what the goal selects.
func concurrentDialogue(base, wireAddr string, g int) error {
	st, err := workload.NewStream("synthetic", workload.StreamConfig{Batches: 1, Seed: int64(g)})
	if err != nil {
		return err
	}
	full := relation.New(st.Initial.Schema())
	st.Initial.Each(func(_ int, tu relation.Tuple) { full.MustAppend(tu) })
	for _, tu := range st.Batches[0] {
		full.MustAppend(tu)
	}
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, st.Initial); err != nil {
		return err
	}

	// step answers (index, label) — none when index < 0 — and returns
	// the next proposal; appendRest streams the batch in; result reads
	// the inferred predicate.
	var (
		step       func(index int, label string) (next int, done bool, err error)
		appendRest func() error
		result     func() (predicate string, done bool, err error)
	)
	if g%2 == 0 {
		var s summary
		create := map[string]any{"csv": csv.String(), "strategy": "lookahead-maxmin", "seed": g}
		if err := callJSON("POST", base+"/v1/sessions", create, http.StatusCreated, &s); err != nil {
			return err
		}
		url := base + "/v1/sessions/" + s.ID
		step = func(index int, label string) (int, bool, error) {
			body := map[string]any{}
			if index >= 0 {
				body = map[string]any{"index": index, "label": label}
			}
			var r stepResp
			if err := callJSON("POST", url+"/step", body, http.StatusOK, &r); err != nil || r.Done {
				return -1, r.Done, err
			}
			return r.Tuple.Index, false, nil
		}
		appendRest = func() error {
			return callJSON("POST", url+"/tuples", map[string]any{"rows": encodeRows(st.Batches[0])}, http.StatusOK, nil)
		}
		result = func() (string, bool, error) {
			var r struct {
				Done      bool   `json:"done"`
				Predicate string `json:"predicate"`
			}
			err := callJSON("GET", url+"/result", nil, http.StatusOK, &r)
			return r.Predicate, r.Done, err
		}
	} else {
		c, err := wire.Dial(wireAddr, 0)
		if err != nil {
			return err
		}
		defer c.Close()
		id, err := c.Create(csv.String(), "lookahead-maxmin", int64(g))
		if err != nil {
			return err
		}
		step = func(index int, label string) (int, bool, error) {
			var answers []wire.Answer
			if index >= 0 {
				answers = []wire.Answer{{Index: index, Label: wireLabel(label)}}
			}
			r, err := c.Step(id, answers, 1)
			if err != nil || len(r.Proposals) == 0 {
				return -1, err == nil && r.Done, err
			}
			return r.Proposals[0], false, nil
		}
		appendRest = func() error {
			_, err := c.Append(id, encodeRows(st.Batches[0]))
			return err
		}
		result = func() (string, bool, error) {
			r, err := c.Result(id)
			return r.Predicate, r.Done, err
		}
	}

	label := func(i int) string {
		if core.Selects(st.Goal, full.Tuple(i)) {
			return "+"
		}
		return "-"
	}
	next, done, err := step(-1, "")
	appended := false
	for answers := 0; !done || !appended; {
		switch {
		case err != nil:
			return fmt.Errorf("session %d: %w", g, err)
		case answers > full.Len():
			return fmt.Errorf("session %d: no convergence after %d answers", g, answers)
		case !appended && (answers == 2 || done):
			if err := appendRest(); err != nil {
				return fmt.Errorf("session %d: append: %w", g, err)
			}
			appended = true
			next, done, err = step(-1, "")
		default:
			next, done, err = step(next, label(next))
			answers++
		}
	}
	predicate, done, err := result()
	if err != nil || !done {
		return fmt.Errorf("session %d: result done=%v: %v", g, done, err)
	}
	q, err := partition.Parse(predicate)
	if err != nil {
		return fmt.Errorf("session %d: %w", g, err)
	}
	for i := 0; i < full.Len(); i++ {
		if core.Selects(q, full.Tuple(i)) != core.Selects(st.Goal, full.Tuple(i)) {
			return fmt.Errorf("session %d: predicate %s and goal %s disagree on tuple %d", g, predicate, st.Goal, i)
		}
	}
	return nil
}
