package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	jim "repro"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/strategy"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startWire serves srv's wire.Backend on a loopback listener and tears
// it down gracefully with the test.
func startWire(t *testing.T, srv *server.Server) (*wire.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := &wire.Server{Backend: srv}
	done := make(chan error, 1)
	go func() { done <- ws.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ws.Shutdown(ctx); err != nil {
			t.Errorf("wire shutdown: %v", err)
		}
		if err := <-done; err != wire.ErrServerClosed {
			t.Errorf("wire Serve returned %v", err)
		}
	})
	return ws, ln.Addr().String()
}

// wireLabel maps the /v1 label spelling to its wire encoding.
func wireLabel(s string) wire.Label {
	switch s {
	case "+":
		return wire.Positive
	case "-":
		return wire.Negative
	}
	return wire.Skip
}

// encodeRows renders a tuple batch in the HTTP/wire "rows" encoding.
func encodeRows(batch []relation.Tuple) [][]string {
	rows := make([][]string, len(batch))
	for bi, tu := range batch {
		row := make([]string, len(tu))
		for c, v := range tu {
			row[c] = relation.EncodeCell(v)
		}
		rows[bi] = row
	}
	return rows
}

// TestWireDifferentialFullProtocol is the transport-parity acceptance
// test for the binary protocol: one server, both listeners; for every
// shipped strategy, an HTTP session and a wire session created with the
// same seed are driven through the identical op sequence — next, label,
// periodic skips, topk rankings, streamed-in arrival batches — and must
// agree tuple-for-tuple at every step and on the final inferred query.
// Both sessions live in the same session table, so any divergence is a
// codec or dispatch bug, never an inference difference.
func TestWireDifferentialFullProtocol(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			var (
				initial *relation.Relation
				batches [][]relation.Tuple
				goal    partition.P
			)
			if name == "optimal" {
				// Exponential strategy: tiny fixed instance, no streaming.
				initial, goal = workload.Travel(), workload.TravelQ2()
			} else {
				stream, err := workload.NewStream("synthetic", workload.StreamConfig{Batches: 3, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				initial, batches, goal = stream.Initial, stream.Batches, stream.Goal
			}
			picker, err := strategy.ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			_, isKP := picker.(core.KPicker)

			// grown tracks the instance as batches drip in, so labels can
			// be computed for any proposed index on either transport.
			grown := relation.New(initial.Schema())
			initial.Each(func(i int, tu relation.Tuple) { grown.MustAppend(tu) })
			label := func(i int) string {
				if core.Selects(goal, grown.Tuple(i)) {
					return "+"
				}
				return "-"
			}

			srv := server.NewWith(server.Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			_, addr := startWire(t, srv)
			c, err := wire.Dial(addr, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var csv bytes.Buffer
			if err := relation.WriteCSV(&csv, initial); err != nil {
				t.Fatal(err)
			}
			var s summary
			doJSON(t, "POST", ts.URL+"/v1/sessions",
				map[string]any{"csv": csv.String(), "strategy": name, "seed": 7},
				http.StatusCreated, &s)
			base := ts.URL + "/v1/sessions/" + s.ID
			wid, err := c.Create(csv.String(), name, 7)
			if err != nil {
				t.Fatal(err)
			}
			if wid == s.ID {
				t.Fatalf("wire and HTTP sessions share id %q", wid)
			}

			nextBatch := 0
			questions := 0
			done := false
			for step := 0; ; step++ {
				if step > 4*grown.Len() {
					t.Fatal("protocol did not converge")
				}
				// Drip arrival batches into both transports.
				if nextBatch < len(batches) && step%4 == 3 {
					batch := batches[nextBatch]
					rows := encodeRows(batch)
					var ar appendResp
					doJSON(t, "POST", base+"/tuples", map[string]any{"rows": rows}, http.StatusOK, &ar)
					war, err := c.Append(wid, rows)
					if err != nil {
						t.Fatalf("step %d: wire append: %v", step, err)
					}
					if war.Appended != ar.Appended || war.NewlyImplied != len(ar.NewlyImplied) ||
						war.Informative != ar.Informative || war.Done != ar.Done {
						t.Fatalf("step %d: wire append %+v, HTTP %+v", step, war, ar)
					}
					for _, tu := range batch {
						grown.MustAppend(tu)
					}
					done = ar.Done
					nextBatch++
					continue
				}
				// Compare a ranked batch every few steps (KPickers only):
				// GET /topk against a k>1 step frame with no answers.
				if step%5 == 4 {
					if isKP && !done {
						var out struct {
							Tuples []struct {
								Index int `json:"index"`
							} `json:"tuples"`
						}
						doJSON(t, "GET", base+"/topk?k=3", nil, http.StatusOK, &out)
						res, err := c.Step(wid, nil, 3)
						if err != nil {
							t.Fatalf("step %d: wire topk: %v", step, err)
						}
						if len(res.Proposals) != len(out.Tuples) {
							t.Fatalf("step %d: topk %d on wire, %d over HTTP",
								step, len(res.Proposals), len(out.Tuples))
						}
						for k := range out.Tuples {
							if res.Proposals[k] != out.Tuples[k].Index {
								t.Fatalf("step %d: topk[%d] = %d on wire, %d over HTTP",
									step, k, res.Proposals[k], out.Tuples[k].Index)
							}
						}
					}
					continue
				}
				// GET /next against a k=1 step frame with no answers.
				var n next
				doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
				res, err := c.Step(wid, nil, 1)
				if err != nil {
					t.Fatalf("step %d: wire next: %v", step, err)
				}
				if n.Done != (len(res.Proposals) == 0 && res.Done) {
					t.Fatalf("step %d: done=%v over HTTP, wire proposals=%v done=%v",
						step, n.Done, res.Proposals, res.Done)
				}
				if n.Done {
					done = true
					if nextBatch < len(batches) {
						continue // converged early; arrivals still pending
					}
					break
				}
				if len(res.Proposals) != 1 || res.Proposals[0] != n.Tuple.Index {
					t.Fatalf("step %d: HTTP proposed tuple %d, wire proposed %v",
						step, n.Tuple.Index, res.Proposals)
				}
				// POST /label against a k=0 step frame carrying the answer —
				// skip every 7th question on both sides, label otherwise.
				lab := label(n.Tuple.Index)
				if questions%7 == 6 {
					lab = "skip"
				}
				var lr labelResp
				doJSON(t, "POST", base+"/label",
					map[string]any{"index": n.Tuple.Index, "label": lab}, http.StatusOK, &lr)
				ans := []wire.Answer{{Index: n.Tuple.Index, Label: wireLabel(lab)}}
				wres, err := c.Step(wid, ans, 0)
				if err != nil {
					t.Fatalf("step %d: wire label: %v", step, err)
				}
				if len(wres.Applied) != 1 || len(wres.Proposals) != 0 {
					t.Fatalf("step %d: k=0 step returned %+v", step, wres)
				}
				if wres.Applied[0].NewlyImplied != len(lr.NewlyImplied) ||
					wres.Applied[0].Informative != lr.Informative || wres.Done != lr.Done {
					t.Fatalf("step %d: wire label %+v done=%v, HTTP %+v", step, wres.Applied[0], wres.Done, lr)
				}
				done = lr.Done
				questions++
			}

			var hres struct {
				Done      bool   `json:"done"`
				Predicate string `json:"predicate"`
				SQL       string `json:"sql"`
			}
			doJSON(t, "GET", base+"/result", nil, http.StatusOK, &hres)
			wresult, err := c.Result(wid)
			if err != nil {
				t.Fatal(err)
			}
			if !wresult.Done || !hres.Done {
				t.Errorf("done: wire=%v HTTP=%v", wresult.Done, hres.Done)
			}
			if wresult.Predicate != hres.Predicate {
				t.Errorf("M_P on wire = %s, over HTTP = %s", wresult.Predicate, hres.Predicate)
			}
			if wresult.SQL != hres.SQL {
				t.Errorf("SQL on wire = %q, over HTTP = %q", wresult.SQL, hres.SQL)
			}
			// Both transports address the same session table: the wire
			// client can delete the HTTP-created session, and the HTTP
			// surface sees both gone.
			if err := c.Delete(wid); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete(s.ID); err != nil {
				t.Fatal(err)
			}
			wantError(t, "GET", base, nil, http.StatusNotFound, "not_found")
		})
	}
}

// TestWireFusedStepMatchesHTTPStep pins the fused frame against the
// fused HTTP call: a wire step carrying an answer plus k=1 (or k=3)
// must behave exactly like POST /step with the same body — the wire
// protocol's one-frame dialogue turn is the same atomic apply+propose,
// just without the JSON.
func TestWireFusedStepMatchesHTTPStep(t *testing.T) {
	rel, goal := workload.Travel(), workload.TravelQ2()
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, rel); err != nil {
		t.Fatal(err)
	}
	label := func(i int) string {
		if core.Selects(goal, rel.Tuple(i)) {
			return "+"
		}
		return "-"
	}

	srv := server.NewWith(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, addr := startWire(t, srv)
	c, err := wire.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var s summary
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"csv": csv.String(), "strategy": "lookahead-maxmin", "seed": 3},
		http.StatusCreated, &s)
	stepURL := ts.URL + "/v1/sessions/" + s.ID + "/step"
	wid, err := c.Create(csv.String(), "lookahead-maxmin", 3)
	if err != nil {
		t.Fatal(err)
	}

	// Propose-only opener on both.
	var hr stepResp
	doJSON(t, "POST", stepURL, map[string]any{}, http.StatusOK, &hr)
	wr, err := c.Step(wid, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	questions := 0
	for !hr.Done {
		if questions > rel.Len() {
			t.Fatal("dialogue did not converge")
		}
		if hr.Tuple == nil || len(wr.Proposals) != 1 || wr.Proposals[0] != hr.Tuple.Index {
			t.Fatalf("q%d: HTTP proposed %+v, wire %v", questions, hr.Tuple, wr.Proposals)
		}
		idx := hr.Tuple.Index
		lab := label(idx)
		if questions%5 == 4 {
			lab = "skip"
		}
		k := 1
		if questions%3 == 2 {
			k = 3 // fused answer + ranked batch
		}
		var hn stepResp
		doJSON(t, "POST", stepURL,
			map[string]any{"index": idx, "label": lab, "k": k}, http.StatusOK, &hn)
		wn, err := c.Step(wid, []wire.Answer{{Index: idx, Label: wireLabel(lab)}}, k)
		if err != nil {
			t.Fatalf("q%d: wire fused step: %v", questions, err)
		}
		if hn.Applied == nil || len(wn.Applied) != 1 {
			t.Fatalf("q%d: applied missing: HTTP %+v, wire %+v", questions, hn.Applied, wn.Applied)
		}
		if wn.Applied[0].NewlyImplied != len(hn.Applied.NewlyImplied) ||
			wn.Applied[0].Informative != hn.Applied.Informative {
			t.Fatalf("q%d: applied %+v on wire, %+v over HTTP", questions, wn.Applied[0], *hn.Applied)
		}
		if k > 1 {
			if len(wn.Proposals) != len(hn.Tuples) {
				t.Fatalf("q%d: fused topk %d on wire, %d over HTTP", questions, len(wn.Proposals), len(hn.Tuples))
			}
			for i := range hn.Tuples {
				if wn.Proposals[i] != hn.Tuples[i].Index {
					t.Fatalf("q%d: fused topk[%d] = %d on wire, %d over HTTP",
						questions, i, wn.Proposals[i], hn.Tuples[i].Index)
				}
			}
			// Re-propose the single routed next on both so the loop can
			// keep feeding answers after a ranked-batch turn.
			doJSON(t, "POST", stepURL, map[string]any{}, http.StatusOK, &hn)
			wn, err = c.Step(wid, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		if wn.Done != hn.Done {
			t.Fatalf("q%d: done=%v on wire, %v over HTTP", questions, wn.Done, hn.Done)
		}
		hr, wr = hn, wn
		questions++
	}
	if len(wr.Proposals) != 0 || !wr.Done {
		t.Fatalf("wire not converged with HTTP: %+v", wr)
	}
	wres, err := c.Result(wid)
	if err != nil {
		t.Fatal(err)
	}
	var hres struct {
		Predicate string `json:"predicate"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/result", nil, http.StatusOK, &hres)
	if wres.Predicate != hres.Predicate {
		t.Errorf("M_P on wire = %s, over HTTP = %s", wres.Predicate, hres.Predicate)
	}
}

// TestWireErrorsMatchHTTP is the failure half of transport parity:
// the same failing request, sent over HTTP and over the wire against
// twin sessions created from the same CSV, strategy and seed, must
// fail with the same jim.ErrorCode and the same message. Both
// transports call the one apply layer, so only the framing differs.
// An append body is also parsed by a library jim.Session over the same
// CSV: where that parse fails, the transports fail with its code and
// message; where it succeeds, the batch is empty and the failure is the
// server's empty-append rule.
func TestWireErrorsMatchHTTP(t *testing.T) {
	srv := server.NewWith(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, addr := startWire(t, srv)
	c, err := wire.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	twins := func(csv string) (string, string) {
		var s summary
		doJSON(t, "POST", ts.URL+"/v1/sessions",
			map[string]any{"csv": csv, "strategy": "lookahead-maxmin", "seed": 7},
			http.StatusCreated, &s)
		wid, err := c.Create(csv, "lookahead-maxmin", 7)
		if err != nil {
			t.Fatal(err)
		}
		return s.ID, wid
	}
	const typedCSV = "n:int,s\n1,a\n2,b\n"
	hid, wid := twins(travelCSV)
	doneHID, doneWID := twins("a,b\n1,1\n") // converged at creation
	typedHID, typedWID := twins(typedCSV)
	// facade opens a library session over csv, pinning its typing as
	// the server does.
	facade := func(csv string) *jim.Session {
		rel, typing, err := relation.ReadCSVString(csv, relation.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := jim.NewSession(rel, jim.WithTyping(typing))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	travel, typed := facade(travelCSV), facade(typedCSV)
	answer := func(id string, index int, l wire.Label) func() error {
		return func() error {
			_, err := c.Step(id, []wire.Answer{{Index: index, Label: l}}, 0)
			return err
		}
	}
	appendRows := func(id string, rows [][]string) func() error {
		return func() error {
			_, err := c.Append(id, rows)
			return err
		}
	}
	// (12)+ implies (3)+: afterwards (3)- is inconsistent and (12) is
	// explicitly labeled.
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+hid+"/label",
		map[string]any{"index": 11, "label": "+"}, http.StatusOK, nil)
	if err := answer(wid, 11, wire.Positive)(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		code jim.ErrorCode
		// path is the HTTP request path below /v1/sessions/.
		path string
		body any
		wire func() error
		// parse is the library parse of an append's body; nil for
		// other requests.
		parse func() (*jim.Batch, error)
	}{
		{"out of range", jim.CodeOutOfRange, hid + "/label",
			map[string]any{"index": 99, "label": "+"}, answer(wid, 99, wire.Positive), nil},
		{"already labeled", jim.CodeAlreadyLabeled, hid + "/label",
			map[string]any{"index": 11, "label": "-"}, answer(wid, 11, wire.Negative), nil},
		{"inconsistent label", jim.CodeInconsistent, hid + "/label",
			map[string]any{"index": 2, "label": "-"}, answer(wid, 2, wire.Negative), nil},
		{"skip after done", jim.CodeSessionDone, doneHID + "/label",
			map[string]any{"index": 0, "label": "skip"}, answer(doneWID, 0, wire.Skip), nil},
		{"empty append", jim.CodeBadInput, hid + "/tuples",
			map[string]any{"rows": [][]string{}}, appendRows(wid, [][]string{}),
			func() (*jim.Batch, error) { return travel.ParseRows([][]string{}) }},
		{"empty append, header-only csv", jim.CodeBadInput, hid + "/tuples",
			map[string]any{"csv": "From,To,Airline,City,Discount\n"}, appendRows(wid, [][]string{}),
			func() (*jim.Batch, error) { return travel.ParseCSV("From,To,Airline,City,Discount\n") }},
		{"append row of the wrong arity", jim.CodeSchemaMismatch, hid + "/tuples",
			map[string]any{"rows": [][]string{{"just", "two"}}}, appendRows(wid, [][]string{{"just", "two"}}),
			func() (*jim.Batch, error) { return travel.ParseRows([][]string{{"just", "two"}}) }},
		{"append unparsable typed cell", jim.CodeBadInput, typedHID + "/tuples",
			map[string]any{"rows": [][]string{{"3", "c"}, {"four", "d"}}}, appendRows(typedWID, [][]string{{"3", "c"}, {"four", "d"}}),
			func() (*jim.Batch, error) { return typed.ParseRows([][]string{{"3", "c"}, {"four", "d"}}) }},
		{"unknown session", jim.CodeNotFound, "nope/step",
			map[string]any{"k": 1}, func() error { _, err := c.Step("nope", nil, 1); return err }, nil},
	}
	for _, tc := range cases {
		var je *jim.Error
		if err := tc.wire(); !errors.As(err, &je) || je.Code != tc.code {
			t.Errorf("%s: wire error %v, want code %s", tc.name, err, tc.code)
			continue
		}
		var e errBody
		doJSON(t, "POST", ts.URL+"/v1/sessions/"+tc.path, tc.body, je.Code.HTTPStatus(), &e)
		if e.Error.Code != string(je.Code) || e.Error.Message != je.Message {
			t.Errorf("%s: HTTP %s %q, wire %s %q", tc.name, e.Error.Code, e.Error.Message, je.Code, je.Message)
		}
		if tc.parse == nil {
			continue
		}
		var fe *jim.Error
		switch b, err := tc.parse(); {
		case errors.As(err, &fe):
			if fe.Code != je.Code || fe.Message != je.Message {
				t.Errorf("%s: library parse %s %q, wire %s %q", tc.name, fe.Code, fe.Message, je.Code, je.Message)
			}
		case err != nil:
			t.Errorf("%s: library parse error %v is not a *jim.Error", tc.name, err)
		case b.Len() != 0:
			t.Errorf("%s: library parse accepted %d tuples the server refused", tc.name, b.Len())
		}
	}

	// The failures changed neither twin: both still propose alike.
	var n next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+hid+"/next", nil, http.StatusOK, &n)
	res, err := c.Step(wid, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tuple == nil || len(res.Proposals) != 1 || res.Proposals[0] != n.Tuple.Index {
		t.Errorf("twins diverged after failures: HTTP %+v, wire %v", n, res.Proposals)
	}
}

// TestWireCrashRecovery drives a disk-backed session entirely over the
// wire protocol, kills the server without any graceful snapshot, and
// reopens the data directory: the recovered session must continue in
// lockstep with an uninterrupted memory-backed control session — same
// proposals from the crash point to convergence, same final query. The
// wire transport must add framing, not durability semantics: every
// acknowledged frame is already in the WAL.
func TestWireCrashRecovery(t *testing.T) {
	stream, err := workload.NewStream("synthetic", workload.StreamConfig{Batches: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	initial, batches, goal := stream.Initial, stream.Batches, stream.Goal
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, initial); err != nil {
		t.Fatal(err)
	}
	grown := relation.New(initial.Schema())
	initial.Each(func(i int, tu relation.Tuple) { grown.MustAppend(tu) })
	label := func(i int) string {
		if core.Selects(goal, grown.Tuple(i)) {
			return "+"
		}
		return "-"
	}

	// Control: memory-backed, never interrupted, also driven over wire.
	ctrlSrv := server.NewWith(server.Config{})
	_, ctrlAddr := startWire(t, ctrlSrv)
	ctrl, err := wire.Dial(ctrlAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrlID, err := ctrl.Create(csv.String(), "lookahead-maxmin", 7)
	if err != nil {
		t.Fatal(err)
	}

	// Primary: disk-backed with an aggressive snapshot cadence, so the
	// crash lands on a snapshot + WAL-suffix mix.
	dir := t.TempDir()
	cfg, ds := diskConfig(t, dir)
	srv := server.NewWith(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := &wire.Server{Backend: srv}
	wsDone := make(chan error, 1)
	go func() { wsDone <- ws.Serve(ln) }()
	c, err := wire.Dial(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Create(csv.String(), "lookahead-maxmin", 7)
	if err != nil {
		t.Fatal(err)
	}

	nextBatch := 0
	questions := 0
	appended := false
	// drive advances both sessions in lockstep until crashAt questions
	// (negative: to convergence), comparing every proposal.
	drive := func(c *wire.Client, crashAt int) bool {
		for step := 0; ; step++ {
			if step > 6*grown.Len() {
				t.Fatal("dialogue did not converge")
			}
			if crashAt >= 0 && questions >= crashAt {
				return false
			}
			if nextBatch < len(batches) && step%4 == 3 {
				batch := batches[nextBatch]
				rows := encodeRows(batch)
				pr, err := c.Append(id, rows)
				if err != nil {
					t.Fatalf("step %d: primary append: %v", step, err)
				}
				cr, err := ctrl.Append(ctrlID, rows)
				if err != nil {
					t.Fatalf("step %d: control append: %v", step, err)
				}
				if pr != cr {
					t.Fatalf("step %d: append %+v on primary, %+v on control", step, pr, cr)
				}
				for _, tu := range batch {
					grown.MustAppend(tu)
				}
				nextBatch++
				appended = true
				continue
			}
			pres, err := c.Step(id, nil, 1)
			if err != nil {
				t.Fatalf("step %d: primary next: %v", step, err)
			}
			pIdx, pOK := 0, len(pres.Proposals) == 1
			if pOK {
				pIdx = pres.Proposals[0]
			}
			pDone := pres.Done
			cres, err := ctrl.Step(ctrlID, nil, 1)
			if err != nil {
				t.Fatalf("step %d: control next: %v", step, err)
			}
			cOK := len(cres.Proposals) == 1
			if pOK != cOK || (pOK && pIdx != cres.Proposals[0]) || pDone != cres.Done {
				t.Fatalf("step %d (q%d): primary proposed %v done=%v, control %v done=%v",
					step, questions, pres.Proposals, pDone, cres.Proposals, cres.Done)
			}
			if !pOK {
				if pDone {
					if nextBatch < len(batches) {
						continue
					}
					return true
				}
				continue
			}
			// Skip every 5th question so the skip set is live at the
			// crash point — recovery must restore routing, not just labels.
			lab := label(pIdx)
			if questions%5 == 2 {
				lab = "skip"
			}
			ans := []wire.Answer{{Index: pIdx, Label: wireLabel(lab)}}
			pl, err := c.Step(id, ans, 0)
			if err != nil {
				t.Fatalf("step %d: primary label: %v", step, err)
			}
			pApplied, pLDone := pl.Applied[0], pl.Done
			cl, err := ctrl.Step(ctrlID, ans, 0)
			if err != nil {
				t.Fatalf("step %d: control label: %v", step, err)
			}
			if pApplied != cl.Applied[0] || pLDone != cl.Done {
				t.Fatalf("step %d: label %+v done=%v on primary, %+v done=%v on control",
					step, pApplied, pLDone, cl.Applied[0], cl.Done)
			}
			questions++
		}
	}

	// Phase 1: run past the first skip (q2) and the first arrival batch,
	// then crash with both in play.
	converged := drive(c, 5)
	if converged {
		t.Fatal("dialogue converged before the crash point")
	}
	if !appended {
		t.Fatal("crash point reached before any arrival batch landed")
	}

	// SIGKILL-style: drop the client, stop serving, close the store —
	// no SnapshotAll, no sweep. Only per-request WAL writes survive.
	c.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ws.Shutdown(shutCtx); err != nil {
		t.Fatalf("wire shutdown: %v", err)
	}
	if err := <-wsDone; err != wire.ErrServerClosed {
		t.Fatalf("wire Serve returned %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the directory, restore, and serve the wire protocol again.
	cfg2, ds2 := diskConfig(t, dir)
	defer ds2.Close()
	srv2 := server.NewWith(cfg2)
	restored, err := srv2.Restore()
	if err != nil || restored != 1 {
		t.Fatalf("restore = %d, %v; want 1 session", restored, err)
	}
	_, addr2 := startWire(t, srv2)
	c2, err := wire.Dial(addr2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The recovered session's running result matches the control's.
	pr, err := c2.Result(id)
	if err != nil {
		t.Fatalf("result over recovered wire: %v", err)
	}
	cr, err := ctrl.Result(ctrlID)
	if err != nil {
		t.Fatal(err)
	}
	if pr != cr {
		t.Fatalf("recovered result %+v, control %+v", pr, cr)
	}

	// Phase 2: finish the dialogue against the recovered server, still
	// in lockstep — every proposal from the crash point on must match.
	drive(c2, -1)
	pr, err = c2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	cr, err = ctrl.Result(ctrlID)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Done || pr != cr {
		t.Fatalf("final recovered result %+v, control %+v", pr, cr)
	}
}
