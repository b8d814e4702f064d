package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
)

// stepResp mirrors the POST /step response shape.
type stepResp struct {
	Applied *labelResp `json:"applied"`
	Done    bool       `json:"done"`
	Tuple   *struct {
		Index  int               `json:"index"`
		Values map[string]string `json:"values"`
	} `json:"tuple"`
	Tuples []struct {
		Index  int               `json:"index"`
		Values map[string]string `json:"values"`
	} `json:"tuples"`
}

// TestStepMatchesLabelNextDialogue drives two identical sessions to
// convergence — one with the classic GET /next + POST /label pair per
// step, one with a single POST /step per step — answering each
// proposal the same way, and requires the two dialogues to propose the
// same tuples in the same order and converge to the same result. /step
// is a round-trip optimization, never a semantic change.
func TestStepMatchesLabelNextDialogue(t *testing.T) {
	ts := newTestServer(t)
	answer := func(index int) string {
		if index%2 == 0 {
			return "+"
		}
		return "-"
	}

	// Classic two-round-trip dialogue.
	classic := createSession(t, ts, "lookahead-maxmin")
	var classicOrder []int
	for steps := 0; steps < 100; steps++ {
		var n next
		doJSON(t, "GET", ts.URL+"/v1/sessions/"+classic.ID+"/next", nil, http.StatusOK, &n)
		if n.Done {
			break
		}
		classicOrder = append(classicOrder, n.Tuple.Index)
		var lr labelResp
		doJSON(t, "POST", ts.URL+"/v1/sessions/"+classic.ID+"/label",
			map[string]any{"index": n.Tuple.Index, "label": answer(n.Tuple.Index)},
			http.StatusOK, &lr)
	}

	// One-round-trip dialogue: the first call proposes, every later
	// call answers and proposes together.
	stepped := createSession(t, ts, "lookahead-maxmin")
	stepURL := ts.URL + "/v1/sessions/" + stepped.ID + "/step"
	var steppedOrder []int
	var sr stepResp
	doJSON(t, "POST", stepURL, map[string]any{}, http.StatusOK, &sr)
	for steps := 0; steps < 100 && !sr.Done && sr.Tuple != nil; steps++ {
		idx := sr.Tuple.Index
		steppedOrder = append(steppedOrder, idx)
		sr = stepResp{}
		doJSON(t, "POST", stepURL,
			map[string]any{"index": idx, "label": answer(idx)},
			http.StatusOK, &sr)
		if sr.Applied == nil {
			t.Fatalf("step with a label returned no applied summary")
		}
	}

	if fmt.Sprint(classicOrder) != fmt.Sprint(steppedOrder) {
		t.Fatalf("dialogues diverged:\n classic %v\n stepped %v", classicOrder, steppedOrder)
	}
	if !sr.Done {
		t.Fatalf("stepped dialogue did not converge: %+v", sr)
	}

	var a, b result
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+classic.ID+"/result", nil, http.StatusOK, &a)
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+stepped.ID+"/result", nil, http.StatusOK, &b)
	if a.SQL != b.SQL || a.Atoms != b.Atoms {
		t.Fatalf("results diverged: classic %+v, stepped %+v", a, b)
	}
}

// TestStepTopK asks for a ranked batch with the answer applied first.
func TestStepTopK(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	stepURL := ts.URL + "/v1/sessions/" + s.ID + "/step"

	var first stepResp
	doJSON(t, "POST", stepURL, map[string]any{"k": 3}, http.StatusOK, &first)
	if len(first.Tuples) != 3 || first.Tuple != nil || first.Applied != nil {
		t.Fatalf("propose-only k=3 step = %+v", first)
	}

	var second stepResp
	doJSON(t, "POST", stepURL,
		map[string]any{"index": first.Tuples[0].Index, "label": "+", "k": 2},
		http.StatusOK, &second)
	if second.Applied == nil || len(second.Tuples) == 0 {
		t.Fatalf("answer+k step = %+v", second)
	}
}

// TestStepSkip answers "skip" through /step and requires the combined
// proposal to route around the skipped class, like GET /next does.
func TestStepSkip(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	stepURL := ts.URL + "/v1/sessions/" + s.ID + "/step"

	var first stepResp
	doJSON(t, "POST", stepURL, map[string]any{}, http.StatusOK, &first)
	if first.Tuple == nil {
		t.Fatalf("propose-only step = %+v", first)
	}
	var after stepResp
	doJSON(t, "POST", stepURL,
		map[string]any{"index": first.Tuple.Index, "label": "skip"},
		http.StatusOK, &after)
	if after.Applied == nil || after.Tuple == nil {
		t.Fatalf("skip step = %+v", after)
	}
	if after.Tuple.Index == first.Tuple.Index {
		t.Fatalf("skip step re-proposed tuple %d", first.Tuple.Index)
	}
}

// TestStepValidation covers the error envelope cases of POST /step.
func TestStepValidation(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	stepURL := ts.URL + "/v1/sessions/" + s.ID + "/step"

	wantError(t, "POST", stepURL, map[string]any{"label": "+"},
		http.StatusBadRequest, "bad_input")
	wantError(t, "POST", stepURL, map[string]any{"index": 0},
		http.StatusBadRequest, "bad_input")
	wantError(t, "POST", stepURL, map[string]any{"index": 0, "label": "maybe"},
		http.StatusBadRequest, "bad_input")
	wantError(t, "POST", stepURL, map[string]any{"k": -1},
		http.StatusBadRequest, "bad_input")
	wantError(t, "POST", stepURL, map[string]any{"index": 9999, "label": "+"},
		http.StatusBadRequest, "out_of_range")
	wantError(t, "POST", ts.URL+"/v1/sessions/nope/step", map[string]any{},
		http.StatusNotFound, "not_found")

	// A failed answer must not advance the dialogue: the next
	// propose-only call still proposes (the session is unchanged).
	var sr stepResp
	doJSON(t, "POST", stepURL, map[string]any{}, http.StatusOK, &sr)
	if sr.Tuple == nil || sr.Done {
		t.Fatalf("session advanced after failed steps: %+v", sr)
	}

	// /step is v1-only: the unversioned alias must not exist.
	resp, err := http.Post(ts.URL+"/sessions/"+s.ID+"/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unversioned /step answered %d, want 404", resp.StatusCode)
	}
}

// TestHugeKOnOptimalSession pins that a proposal batch is bounded by
// the instance, not by the client: an optimal session asked for 4e9
// proposals over GET /topk or POST /step — or for the largest k a wire
// step frame can carry — answers with at most one tuple per
// informative class instead of reserving k slots and taking the whole
// node down.
func TestHugeKOnOptimalSession(t *testing.T) {
	const hugeK = 4_000_000_000
	srv := server.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s := createSession(t, ts, "optimal")
	base := ts.URL + "/v1/sessions/" + s.ID

	var topk stepResp
	doJSON(t, "GET", fmt.Sprintf("%s/topk?k=%d", base, hugeK), nil, http.StatusOK, &topk)
	var sr stepResp
	doJSON(t, "POST", base+"/step", map[string]any{"k": hugeK}, http.StatusOK, &sr)
	if len(topk.Tuples) == 0 || len(topk.Tuples) > s.Informative || len(sr.Tuples) != len(topk.Tuples) {
		t.Fatalf("topk %d tuples, step %d, for %d informative tuples", len(topk.Tuples), len(sr.Tuples), s.Informative)
	}

	_, addr := startWire(t, srv)
	c, err := wire.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wid, err := c.Create(travelCSV, "optimal", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Step(wid, nil, math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Proposals) != len(topk.Tuples) {
		t.Fatalf("wire step proposed %d tuples, HTTP %d", len(res.Proposals), len(topk.Tuples))
	}
}

// postRaw POSTs body verbatim and returns the status and the decoded
// error envelope (zero on success).
func postRaw(t *testing.T, url, body string) (int, errBody) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e errBody
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("POST %s: decoding error envelope %s: %v", url, data, err)
		}
	}
	return resp.StatusCode, e
}

// untouched requires a session with no labels whose next proposal is
// still want: rejected requests must leave the dialogue where it was.
func untouched(t *testing.T, ts *httptest.Server, id string, want int) {
	t.Helper()
	var sum summary
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, http.StatusOK, &sum)
	var n next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/next", nil, http.StatusOK, &n)
	if sum.Labels != 0 || sum.Implied != 0 || n.Tuple == nil || n.Tuple.Index != want {
		t.Fatalf("session changed: summary %+v, next %+v, want no labels and proposal %d", sum, n.Tuple, want)
	}
}

// TestStepBodyLimit applies Config.MaxBodyBytes to the dialogue
// bodies: an oversized /step or /label body — here one long label
// string — gets 413 body_too_large and leaves the session untouched.
func TestStepBodyLimit(t *testing.T) {
	ts := httptest.NewServer(server.NewWith(server.Config{MaxBodyBytes: 4096}).Handler())
	t.Cleanup(ts.Close)
	s := createSession(t, ts, "lookahead-maxmin")
	var first next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &first)
	big := fmt.Sprintf(`{"index":%d,"label":"+%s"}`, first.Tuple.Index, strings.Repeat(" ", 8192))
	for _, ep := range []string{"/step", "/label"} {
		status, e := postRaw(t, ts.URL+"/v1/sessions/"+s.ID+ep, big)
		if status != http.StatusRequestEntityTooLarge || e.Error.Code != "body_too_large" {
			t.Fatalf("oversized %s body: status %d, envelope %+v; want 413 body_too_large", ep, status, e)
		}
	}
	untouched(t, ts, s.ID, first.Tuple.Index)

	// Within-limit answers still land.
	var sr stepResp
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/step",
		map[string]any{"index": first.Tuple.Index, "label": "+"}, http.StatusOK, &sr)
	if sr.Applied == nil {
		t.Fatalf("within-limit step = %+v", sr)
	}
}

// TestStepRejectsTrailingData holds /step and /label bodies to exactly
// one JSON value, as json.Unmarshal does: a second answer appended to
// the first is bad_input, not a silently dropped answer after a 200.
func TestStepRejectsTrailingData(t *testing.T) {
	ts := newTestServer(t)
	s := createSession(t, ts, "lookahead-maxmin")
	var first next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &first)
	i := first.Tuple.Index
	for _, ep := range []string{"/step", "/label"} {
		for _, body := range []string{
			fmt.Sprintf(`{"index":%d,"label":"+"}{"index":%d,"label":"-"}`, i, (i+1)%12),
			fmt.Sprintf(`{"index":%d,"label":"+"} x`, i),
		} {
			status, e := postRaw(t, ts.URL+"/v1/sessions/"+s.ID+ep, body)
			if status != http.StatusBadRequest || e.Error.Code != "bad_input" ||
				!strings.Contains(e.Error.Message, "after top-level value") {
				t.Fatalf("%s %s: status %d, envelope %+v; want 400 bad_input", ep, body, status, e)
			}
		}
		// An empty body reads as json.Unmarshal reports it.
		status, e := postRaw(t, ts.URL+"/v1/sessions/"+s.ID+ep, "")
		if status != http.StatusBadRequest || e.Error.Message != "decoding request: unexpected end of JSON input" {
			t.Fatalf("%s empty body: status %d, envelope %+v", ep, status, e)
		}
	}
	untouched(t, ts, s.ID, i)
}

// TestHTTPStepAllocs pins the allocations of one server-side POST /step
// that answers a tuple and proposes the next: routing, instrumentation,
// the capped body read and decode, the answer, the proposal, and the
// reply encode, served through Handler with prebuilt requests and a
// discarding ResponseWriter. Every measured run answers the same first
// proposal on its own fresh, identically warmed session, so each run
// does the same work.
func TestHTTPStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	const runs = 20
	h := server.NewWith(server.Config{MaxBodyBytes: 1 << 20}).Handler()
	reqs := make([]*replayRequest, runs+1) // AllocsPerRun adds one warm-up run
	w := &nopResponseWriter{h: make(http.Header)}
	for i := range reqs {
		id := handlerSession(t, h)
		// Warm the session: the first proposal builds the strategy's
		// caches, which a long dialogue pays once, not per step.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+id+"/next", nil))
		var n struct {
			Tuple struct {
				Index int `json:"index"`
			} `json:"tuple"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &n); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("next: status %d, %v: %s", rec.Code, err, rec.Body)
		}
		body := fmt.Sprintf(`{"index":%d,"label":"-"}`, n.Tuple.Index)
		reqs[i] = newReplayRequest("POST", "/v1/sessions/"+id+"/step", body)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		reqs[next].serve(h, w)
		next++
		if w.status != http.StatusOK {
			t.Fatalf("step: status %d", w.status)
		}
	})
	t.Logf("%.1f allocations per answered /step", allocs)
	const bound = 8
	if allocs > bound {
		t.Fatalf("answered /step made %.1f allocations, want <= %d", allocs, bound)
	}
}

// TestRepliesCarryContentLength holds the codec's Content-Length
// shortcut to a real server: replies on both sides of net/http's
// 2,048-byte chunking buffer carry a Content-Length equal to their
// body, and none is chunked. The sessions' tuples pad the /next reply
// across the boundary a few bytes at a time; a short and a long reply
// encoded by writeJSON close the sweep.
func TestRepliesCarryContentLength(t *testing.T) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	check := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s reply of %d bytes: Content-Length %d, Transfer-Encoding %v",
				resp.Request.URL.Path, len(body), resp.ContentLength, resp.TransferEncoding)
		}
		return body
	}
	var below, above int
	for pad := 1930; pad < 2050; pad += 3 {
		csv := fmt.Sprintf("a,b\n%s,1\n%s,2\n", strings.Repeat("x", pad), strings.Repeat("y", pad))
		body, err := json.Marshal(map[string]any{"csv": csv})
		if err != nil {
			t.Fatal(err)
		}
		var created struct {
			ID string `json:"id"`
		}
		reply := check(http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(string(body))))
		if err := json.Unmarshal(reply, &created); err != nil || created.ID == "" {
			t.Fatalf("create: %v: %s", err, reply)
		}
		if n := len(check(http.Get(ts.URL + "/v1/sessions/" + created.ID + "/next"))); n > 2048 {
			above++
		} else {
			below++
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("%d replies at most 2,048 bytes and %d above: the sweep missed the boundary", below, above)
	}
	// Replies encoded by writeJSON follow the same rule: the strategy
	// list is short, and the listing of the sessions above is long.
	if n := len(check(http.Get(ts.URL + "/v1/strategies"))); n > 2048 {
		t.Fatalf("strategies reply of %d bytes, want at most 2,048", n)
	}
	if n := len(check(http.Get(ts.URL + "/v1/sessions?limit=100"))); n <= 2048 {
		t.Fatalf("sessions listing of %d bytes, want more than 2,048", n)
	}
}

// TestWireStepAllocs pins the allocations of one server-side wire step
// that answers a tuple, implies others, and proposes the next. The
// reply carries only the count of implied tuples, so the answer reads
// the engine's implied list in place (jim.Session.Answer) instead
// of copying it. Every measured run answers the second proposal of its
// own fresh, identically warmed bulk-wire-shaped session: the first
// answer, unmeasured, sizes the session's scratch as a dialogue's
// early answers do.
func TestWireStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	const runs = 20
	csv, _ := bulkDialogue(t)
	srv := server.New()
	ids := make([]string, runs+1) // AllocsPerRun adds one warm-up run
	answers := make([][]wire.Answer, len(ids))
	var out wire.StepResult
	for i := range ids {
		id, err := srv.WireCreate(csv, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		// The first proposal builds the strategy's caches, which a
		// long dialogue pays once, not per step.
		if err := srv.WireStep(id, nil, 1, &out); err != nil || len(out.Proposals) != 1 {
			t.Fatalf("first proposal: %v, %v", err, out.Proposals)
		}
		first := []wire.Answer{{Index: out.Proposals[0], Label: wire.Negative}}
		if err := srv.WireStep(id, first, 1, &out); err != nil || len(out.Proposals) != 1 {
			t.Fatalf("first answer: %v, %v", err, out.Proposals)
		}
		ids[i], answers[i] = id, []wire.Answer{{Index: out.Proposals[0], Label: wire.Negative}}
	}
	next, implied := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := srv.WireStep(ids[next], answers[next], 1, &out); err != nil {
			t.Fatal(err)
		}
		implied = min(implied, out.Applied[0].NewlyImplied)
		if next == 0 {
			implied = out.Applied[0].NewlyImplied
		}
		next++
	})
	if implied == 0 {
		t.Fatal("precondition: an answer implied no tuples")
	}
	t.Logf("%.1f allocations per answered wire step implying at least %d tuples", allocs, implied)
	const bound = 0
	if allocs > bound {
		t.Fatalf("answered wire step made %.1f allocations, want <= %d", allocs, bound)
	}
}

// TestHTTPCreateAllocs pins the allocations of one server-side POST
// /v1/sessions of a chat-http-shaped upload, averaged over sixty
// bodies: routing, instrumentation, the capped body read and decode,
// CSV parse, session build and registration, and the summary reply.
// The body's csv reaches the CSV splitter as a view of the pooled
// request buffer, so the count is the session's own objects plus a
// fixed handful; it does not grow with the body's bytes. Measured: 48
// with the session's classes in one flat table and the reply's
// Content-Length left to net/http; 58 with a partition per class, a
// map index and the header formatted by the codec.
func TestHTTPCreateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	bodies := chatBodies(t, 60)
	reqs := make([]*replayRequest, len(bodies))
	for k, body := range bodies {
		reqs[k] = newReplayRequest("POST", "/v1/sessions", body.create)
	}
	h := server.NewWith(server.Config{MaxBodyBytes: 1 << 20}).Handler()
	w := &nopResponseWriter{h: make(http.Header)}
	reqs[0].serve(h, w) // warm the pools
	next := 0
	allocs := testing.AllocsPerRun(len(reqs), func() {
		reqs[next%len(reqs)].serve(h, w)
		next++
		if w.status != http.StatusCreated {
			t.Fatalf("create: status %d", w.status)
		}
	})
	t.Logf("%.1f allocations per create", allocs)
	const bound = 56
	if allocs > bound {
		t.Fatalf("create made %.1f allocations, want <= %d", allocs, bound)
	}
}
