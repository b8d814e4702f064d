package server_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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
