package server_test

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

type appendResp struct {
	Appended     int    `json:"appended"`
	Tuples       int    `json:"tuples"`
	NewlyImplied []int  `json:"newly_implied"`
	Informative  int    `json:"informative"`
	Done         bool   `json:"done"`
	Progress     string `json:"progress"`
}

type growableSummary struct {
	ID             string `json:"id"`
	Tuples         int    `json:"tuples"`
	BaseTuples     int    `json:"base_tuples"`
	AppendedTuples int    `json:"appended_tuples"`
	Informative    int    `json:"informative"`
	Done           bool   `json:"done"`
}

func createGrowable(t *testing.T, ts *httptest.Server, csv, strategy string) growableSummary {
	t.Helper()
	var s growableSummary
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": csv, "strategy": strategy},
		http.StatusCreated, &s)
	return s
}

const streamBaseCSV = `a,b,c,d
1,1,2,2
3,4,5,6
`

func TestAppendTuplesRowsAndSummary(t *testing.T) {
	ts := newTestServer(t)
	s := createGrowable(t, ts, streamBaseCSV, "lookahead-maxmin")
	if s.BaseTuples != 2 || s.AppendedTuples != 0 {
		t.Fatalf("create summary base/appended = %d/%d, want 2/0", s.BaseTuples, s.AppendedTuples)
	}
	base := ts.URL + "/v1/sessions/" + s.ID

	// Converge: label (1,1,2,2) positive and (3,4,5,6) negative.
	doJSON(t, "POST", base+"/label", map[string]any{"index": 0, "label": "+"}, http.StatusOK, nil)
	doJSON(t, "POST", base+"/label", map[string]any{"index": 1, "label": "-"}, http.StatusOK, nil)

	// Stream implied arrivals (rows encoding): both land labeled.
	var ar appendResp
	doJSON(t, "POST", base+"/tuples", map[string]any{
		"rows": [][]string{{"7", "7", "8", "8"}, {"9", "10", "11", "12"}},
	}, http.StatusOK, &ar)
	if ar.Appended != 2 || ar.Tuples != 4 {
		t.Fatalf("append reported %d/%d tuples, want 2 appended of 4", ar.Appended, ar.Tuples)
	}
	if len(ar.NewlyImplied) != 2 || !ar.Done {
		t.Fatalf("implied arrivals: newly=%v done=%v, want 2 implied and done", ar.NewlyImplied, ar.Done)
	}

	// An informative arrival (a=b only) re-opens the session.
	doJSON(t, "POST", base+"/tuples", map[string]any{
		"rows": [][]string{{"20", "20", "21", "22"}},
	}, http.StatusOK, &ar)
	if ar.Done || ar.Informative != 1 {
		t.Fatalf("informative arrival: done=%v informative=%d", ar.Done, ar.Informative)
	}

	var after growableSummary
	doJSON(t, "GET", base, nil, http.StatusOK, &after)
	if after.Tuples != 5 || after.BaseTuples != 2 || after.AppendedTuples != 3 {
		t.Fatalf("summary after appends = %d total / %d base / %d appended, want 5/2/3",
			after.Tuples, after.BaseTuples, after.AppendedTuples)
	}

	// /next proposes the informative arrival; labeling it converges.
	var n next
	doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
	if n.Done || n.Tuple == nil || n.Tuple.Index != 4 {
		t.Fatalf("next after informative arrival = %+v, want tuple 4", n)
	}
	doJSON(t, "POST", base+"/label", map[string]any{"index": 4, "label": "+"}, http.StatusOK, nil)
	doJSON(t, "GET", base, nil, http.StatusOK, &after)
	if !after.Done {
		t.Fatalf("session not done after labeling the arrival: %+v", after)
	}

	// /stats surfaces the ingestion counters.
	var stats struct {
		Ingest struct {
			Appends        int64 `json:"appends"`
			TuplesAppended int64 `json:"tuples_appended"`
		} `json:"ingest"`
	}
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.Ingest.Appends != 2 || stats.Ingest.TuplesAppended != 3 {
		t.Fatalf("stats ingest = %+v, want 2 appends / 3 tuples", stats.Ingest)
	}
}

func TestAppendTuplesCSVAndSchemaMismatch(t *testing.T) {
	ts := newTestServer(t)
	s := createGrowable(t, ts, streamBaseCSV, "lookahead-maxmin")
	base := ts.URL + "/v1/sessions/" + s.ID

	var ar appendResp
	doJSON(t, "POST", base+"/tuples", map[string]any{
		"csv": "a,b,c,d\n30,30,31,32\n",
	}, http.StatusOK, &ar)
	if ar.Appended != 1 || ar.Tuples != 3 {
		t.Fatalf("CSV append = %+v, want 1 appended of 3", ar)
	}

	// Wrong header (schema mismatch) is rejected whole with 409.
	doJSON(t, "POST", base+"/tuples", map[string]any{
		"csv": "a,b,c\n40,40,41\n",
	}, http.StatusConflict, nil)
	// Wrong row arity likewise.
	doJSON(t, "POST", base+"/tuples", map[string]any{
		"rows": [][]string{{"50", "50"}},
	}, http.StatusConflict, nil)
	// Ambiguous and empty bodies are 400s.
	doJSON(t, "POST", base+"/tuples", map[string]any{
		"csv": "a,b,c,d\n1,2,3,4\n", "rows": [][]string{{"1", "2", "3", "4"}},
	}, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/tuples", map[string]any{}, http.StatusBadRequest, nil)
	// A header-only CSV carries no arrivals: 400, and no side effects
	// on metrics or the deferred set.
	doJSON(t, "POST", base+"/tuples", map[string]any{"csv": "a,b,c,d\n"}, http.StatusBadRequest, nil)
	// Unknown session is a 404.
	doJSON(t, "POST", ts.URL+"/v1/sessions/s9999/tuples", map[string]any{
		"rows": [][]string{{"1", "2", "3", "4"}},
	}, http.StatusNotFound, nil)

	// Failed appends left the instance alone.
	var after growableSummary
	doJSON(t, "GET", base, nil, http.StatusOK, &after)
	if after.Tuples != 3 || after.AppendedTuples != 1 {
		t.Fatalf("summary after rejected appends = %+v, want 3 tuples / 1 appended", after)
	}
}

// TestBodyLimit413 pins the MaxBodyBytes hardening on every ingestion
// endpoint: oversized CSV/JSON bodies get 413, within-limit requests
// still work.
func TestBodyLimit413(t *testing.T) {
	srv := server.NewWith(server.Config{MaxBodyBytes: 4096})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	big := strings.Repeat("x", 8192)
	for _, ep := range []string{"/v1/sessions", "/v1/sessions/import"} {
		resp, err := http.Post(ts.URL+ep, "application/json",
			bytes.NewReader([]byte(fmt.Sprintf(`{"csv": %q}`, big))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with oversized body: status %d, want 413", ep, resp.StatusCode)
		}
	}

	s := createGrowable(t, ts, streamBaseCSV, "lookahead-maxmin")
	resp, err := http.Post(ts.URL+"/v1/sessions/"+s.ID+"/tuples", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"csv": %q}`, big))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized append: status %d, want 413", resp.StatusCode)
	}

	// Within-limit traffic is unaffected.
	var ar appendResp
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/tuples", map[string]any{
		"rows": [][]string{{"7", "7", "8", "8"}},
	}, http.StatusOK, &ar)
	if ar.Appended != 1 {
		t.Fatalf("within-limit append = %+v", ar)
	}
}

// TestStreamedSessionMatchesBuildOnce drives a session whose zipf
// instance arrives in batches over HTTP and a session created from the
// full CSV, with the same oracle, and requires the same inferred
// predicate — the end-to-end streaming equivalence at the API level.
func TestStreamedSessionMatchesBuildOnce(t *testing.T) {
	ts := newTestServer(t)
	stream, err := workload.NewStream("zipf", workload.StreamConfig{
		Tuples: 60, Initial: 15, Batches: 5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build-once session over the final instance.
	full := relation.New(stream.Initial.Schema())
	stream.Initial.Each(func(i int, tu relation.Tuple) { full.MustAppend(tu) })
	for _, b := range stream.Batches {
		for _, tu := range b {
			full.MustAppend(tu)
		}
	}
	var fullCSV, initCSV bytes.Buffer
	if err := relation.WriteCSV(&fullCSV, full); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteCSV(&initCSV, stream.Initial); err != nil {
		t.Fatal(err)
	}

	runToResult := func(id string, batches [][]relation.Tuple) string {
		base := ts.URL + "/v1/sessions/" + id
		nextBatch := 0
		for step := 0; ; step++ {
			if step > 4*full.Len() {
				t.Fatalf("session %s: no convergence", id)
			}
			if nextBatch < len(batches) && step%2 == 0 {
				rows := make([][]string, 0, len(batches[nextBatch]))
				for _, tu := range batches[nextBatch] {
					row := make([]string, len(tu))
					for c, v := range tu {
						row[c] = relation.EncodeCell(v)
					}
					rows = append(rows, row)
				}
				doJSON(t, "POST", base+"/tuples", map[string]any{"rows": rows}, http.StatusOK, nil)
				nextBatch++
				continue
			}
			var n next
			doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
			if n.Done {
				if nextBatch < len(batches) {
					continue
				}
				break
			}
			label := "-"
			if core.Selects(stream.Goal, full.Tuple(n.Tuple.Index)) {
				label = "+"
			}
			doJSON(t, "POST", base+"/label",
				map[string]any{"index": n.Tuple.Index, "label": label}, http.StatusOK, nil)
		}
		var res struct {
			Done      bool   `json:"done"`
			Predicate string `json:"predicate"`
		}
		doJSON(t, "GET", base+"/result", nil, http.StatusOK, &res)
		if !res.Done {
			t.Fatalf("session %s: result before convergence", id)
		}
		return res.Predicate
	}

	once := createGrowable(t, ts, fullCSV.String(), "lookahead-maxmin")
	streamed := createGrowable(t, ts, initCSV.String(), "lookahead-maxmin")
	gotOnce := runToResult(once.ID, nil)
	gotStreamed := runToResult(streamed.ID, stream.Batches)
	if gotOnce != gotStreamed {
		t.Fatalf("streamed predicate %q, build-once predicate %q", gotStreamed, gotOnce)
	}

	var sum growableSummary
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+streamed.ID, nil, http.StatusOK, &sum)
	if sum.Tuples != full.Len() || sum.BaseTuples != stream.Initial.Len() {
		t.Fatalf("streamed summary %+v, want %d tuples (%d base)", sum, full.Len(), stream.Initial.Len())
	}
}

// TestAppendPreservesCreationTyping pins the typed-header contract: a
// session created from an annotated CSV ("a:string") parses arrivals
// under the same per-column rules, so a cell like "01" stays a string
// instead of flipping to int 1 — which would silently merge cells the
// creation-time parsing keeps distinct and mislabel the arrival.
func TestAppendPreservesCreationTyping(t *testing.T) {
	ts := newTestServer(t)
	s := createGrowable(t, ts, "a:string,b:string\n1,1\n", "lookahead-maxmin")
	base := ts.URL + "/v1/sessions/" + s.ID
	doJSON(t, "POST", base+"/label", map[string]any{"index": 0, "label": "+"}, http.StatusOK, nil)

	// Under string typing "01" != "1": the arrival's signature is
	// bottom, which M_P = {a,b} does not refine, and with no negative
	// examples it is informative. Inference parsing would read both
	// cells as int 1 and imply the arrival positive on landing.
	for _, body := range []map[string]any{
		{"rows": [][]string{{"01", "1"}}},
		{"csv": "a,b\n01,1\n"},
	} {
		var ar appendResp
		doJSON(t, "POST", base+"/tuples", body, http.StatusOK, &ar)
		if len(ar.NewlyImplied) != 0 {
			t.Fatalf("append %v: typed arrival implied on landing (%v) — typing not preserved", body, ar.NewlyImplied)
		}
	}
	var sum growableSummary
	doJSON(t, "GET", base, nil, http.StatusOK, &sum)
	if sum.Informative != 2 || sum.Done {
		t.Fatalf("typed arrivals should be informative: %+v", sum)
	}
}

// TestAppendIgnoresArrivalHeaderTyping is the converse contract: a
// session created without typing pins all-inference parsing, so an
// append body cannot smuggle per-column annotations in through its
// own CSV header — the same cells parse the same way whatever
// encoding or header they arrive with.
func TestAppendIgnoresArrivalHeaderTyping(t *testing.T) {
	ts := newTestServer(t)
	s := createGrowable(t, ts, "a,b\n1,1\n2,3\n", "lookahead-maxmin")
	base := ts.URL + "/v1/sessions/" + s.ID
	doJSON(t, "POST", base+"/label", map[string]any{"index": 0, "label": "+"}, http.StatusOK, nil)

	// Under the session's inference parsing "01" and "1" are both
	// int 1 (a=b, implied positive); an honored "a:string" annotation
	// would keep them distinct and informative instead.
	for _, body := range []map[string]any{
		{"csv": "a:string,b:string\n01,1\n"},
		{"rows": [][]string{{"01", "1"}}},
	} {
		var ar appendResp
		doJSON(t, "POST", base+"/tuples", body, http.StatusOK, &ar)
		if len(ar.NewlyImplied) != 1 {
			t.Fatalf("append %v: arrival not implied (%v) — arrival header annotations were honored", body, ar.NewlyImplied)
		}
	}
}

// TestWireAppendAllocs is the server-side ingestion allocation guard: a
// 940-row wire append (the size of one bulk arrival batch) on a
// mem-store server builds no WAL event — nothing would store it — and
// parses and registers the rows without per-row allocation, so the
// whole request stays within a small fixed budget.
func TestWireAppendAllocs(t *testing.T) {
	const baseRows, batchRows = 60, 940
	rel, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: baseRows + batchRows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var base strings.Builder
	base.WriteString(strings.Join(rel.Schema().Names(), ",") + "\n")
	rows := make([][]string, 0, batchRows)
	for i := 0; i < rel.Len(); i++ {
		row := make([]string, rel.Schema().Len())
		for c, v := range rel.Tuple(i) {
			row[c] = relation.EncodeCell(v)
		}
		if i < baseRows {
			base.WriteString(strings.Join(row, ",") + "\n")
		} else {
			rows = append(rows, row)
		}
	}
	srv := server.New()
	id, err := srv.WireCreate(base.String(), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The first (unmeasured) run registers the batch's new signature
	// classes; the measured runs land in existing ones.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := srv.WireAppend(id, rows); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per %d-row wire append", allocs, len(rows))
	if allocs > 39 {
		t.Fatalf("%d-row wire append made %.1f allocations, want <= 39", len(rows), allocs)
	}
}

// bulkDialogue returns a bulk-wire-shaped dialogue's inputs: the CSV of
// the first quarter of a 5,000-row synthetic instance and the rest as
// four row batches, the way the service benchmark splits it.
func bulkDialogue(tb testing.TB) (string, [][][]string) {
	tb.Helper()
	const tuples, batches = 5000, 4
	full, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: tuples, Seed: 7919})
	if err != nil {
		tb.Fatal(err)
	}
	base := (tuples + 3) / 4
	var csv strings.Builder
	csv.WriteString(strings.Join(full.Schema().Names(), ",") + "\n")
	out := make([][][]string, batches)
	full.Each(func(i int, tu relation.Tuple) {
		row := make([]string, len(tu))
		for c, v := range tu {
			row[c] = relation.EncodeCell(v)
		}
		if i < base {
			csv.WriteString(strings.Join(row, ",") + "\n")
			return
		}
		k := (i - base) * batches / (tuples - base)
		out[k] = append(out[k], row)
	})
	return csv.String(), out
}

// TestBulkDialogueAllocBytes is the ingest byte budget: a bulk-wire
// dialogue — the create of 1,250 rows and four appends of ~940, decoded
// from wire frames by a warm connection reader and applied by the wire
// backend of a mem-store server — may allocate only a small multiple
// of the bytes its session still holds after a GC. The session keeps
// its cells, classes and per-tuple arrays; what the dialogue may
// allocate beyond them is per-batch scratch and slack, never a copy of
// what is already stored. The session's kept bytes are bounded too,
// per cell of its 5,000×6 instance. Measured: 529 KiB allocated
// against 420 KiB kept (1.26, 14.3 B per cell) with every batch stored
// as a kind column, a payload-word column and a string arena, parsed
// straight into those columns; 871 KiB against 731 KiB (1.19, 25 B
// per cell) when every batch was a slab of 16-byte Values and a slice
// of tuple headers; 1.72 when every append re-grew the tuple headers
// and the create copied its CSV.
func TestBulkDialogueAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not deterministic under -race")
	}
	const runs = 4 // one warm-up, then the best of three
	csv, batches := bulkDialogue(t)
	var frames bytes.Buffer
	w := wire.NewWriter(&frames, 0)
	for range runs {
		if err := w.WriteCreate(csv, "", 1); err != nil {
			t.Fatal(err)
		}
		for _, rows := range batches {
			if err := w.WriteAppend("s0000", rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(&frames, 0)
	var req wire.Request
	srv := server.New()
	dialogue := func() (alloc, kept int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
		id, err := srv.WireCreate(req.CSV, req.Strategy, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for range batches {
			if err := r.ReadRequest(&req); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.WireAppend(id, req.Rows); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		alloc = int64(after.TotalAlloc - before.TotalAlloc)
		runtime.GC()
		runtime.ReadMemStats(&after)
		kept = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if err := srv.WireDelete(id); err != nil {
			t.Fatal(err)
		}
		return alloc, kept
	}
	dialogue() // sizes the reader's frame buffer and row scratch
	// Another goroutine's allocations can only add to a run's count.
	best, leanest := math.Inf(1), math.Inf(1)
	width := len(batches[0][0])
	cells := (strings.Count(csv, "\n") - 1) * width // the create's rows, header excluded
	for _, rows := range batches {
		cells += len(rows) * width
	}
	for range runs - 1 {
		alloc, kept := dialogue()
		ratio := float64(alloc) / float64(kept)
		t.Logf("dialogue allocated %d KiB, its session keeps %d KiB (%.1f B per cell): %.2fx",
			alloc>>10, kept>>10, float64(kept)/float64(cells), ratio)
		best = min(best, ratio)
		leanest = min(leanest, float64(kept)/float64(cells))
	}
	const bound = 1.35
	if best > bound {
		t.Fatalf("a bulk dialogue allocates %.2fx what its session keeps, want <= %.2f", best, bound)
	}
	const keptBound = 16 // bytes per cell
	if leanest > keptBound {
		t.Fatalf("a bulk dialogue's session keeps %.1f bytes per cell, want <= %d", leanest, keptBound)
	}
}
