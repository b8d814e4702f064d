package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The transport benchmarks time the same semantic operation — propose
// the next tuple for a live session — over HTTP+JSON and over the
// binary wire protocol, so `go test -bench Propose -benchmem` shows
// what each request costs server-side on either path. The HTTP path
// rides the hand-written reply codec (httpcodec.go); the wire path the
// zero-alloc codec.

func benchHTTPSession(b *testing.B, ts *httptest.Server) string {
	b.Helper()
	body, err := json.Marshal(map[string]any{"csv": travelCSV, "strategy": "lookahead-maxmin"})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("create: status %d", resp.StatusCode)
	}
	var s struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		b.Fatal(err)
	}
	return s.ID
}

// BenchmarkHTTPStepPropose is one POST /step propose-only round trip:
// routing, session lock, proposal, reply encode, full HTTP stack.
func BenchmarkHTTPStepPropose(b *testing.B) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	url := ts.URL + "/v1/sessions/" + benchHTTPSession(b, ts) + "/step"
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", strings.NewReader("{}"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("step: status %d", resp.StatusCode)
		}
	}
}

// BenchmarkHTTPStepHandler is BenchmarkHTTPStepPropose without the
// socket: the same propose-only POST /step served by calling the
// handler directly with a prebuilt request, so the figure is routing,
// instrumentation, session lock, proposal, and the reply codec only.
func BenchmarkHTTPStepHandler(b *testing.B) {
	h := server.NewWith(server.Config{MaxBodyBytes: 1 << 20}).Handler()
	rr := newReplayRequest("POST", "/v1/sessions/"+handlerSession(b, h)+"/step", "{}")
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.serve(h, w)
		if w.status != http.StatusOK {
			b.Fatalf("step: status %d", w.status)
		}
	}
}

// BenchmarkWireStepPropose is the same propose-only operation framed as
// one wire step (k=1, no answers) on a persistent connection.
func BenchmarkWireStepPropose(b *testing.B) {
	srv := server.New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := &wire.Server{Backend: srv}
	go ws.Serve(ln)
	defer ws.Shutdown(context.Background())
	c, err := wire.Dial(ln.Addr().String(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	id, err := c.Create(travelCSV, "lookahead-maxmin", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Step(id, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Proposals) != 1 {
			b.Fatalf("proposals = %v", res.Proposals)
		}
	}
}

// BenchmarkHTTPSummary is one GET /v1/sessions/{id}: the read-only
// summary, appended by hand into a pooled buffer.
func BenchmarkHTTPSummary(b *testing.B) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	url := ts.URL + "/v1/sessions/" + benchHTTPSession(b, ts)
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("summary: status %d", resp.StatusCode)
		}
	}
}

// nopResponseWriter discards the reply, so a handler measurement sees
// the server's own work and none of a socket's.
type nopResponseWriter struct {
	h      http.Header
	status int
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(code int)        { w.status = code }

// replayRequest is a prebuilt request that can be served again and
// again: serve rewinds its body, so no request is built per call.
type replayRequest struct {
	req  *http.Request
	rd   *bytes.Reader
	body io.ReadCloser
	src  []byte
	h    http.Handler // the handler serving it, when requests span servers
}

func newReplayRequest(method, url, body string) *replayRequest {
	rr := &replayRequest{src: []byte(body), rd: bytes.NewReader(nil)}
	rr.body = io.NopCloser(rr.rd)
	rr.req = httptest.NewRequest(method, url, nil)
	rr.req.ContentLength = int64(len(body))
	return rr
}

func (rr *replayRequest) serve(h http.Handler, w *nopResponseWriter) {
	rr.rd.Reset(rr.src)
	rr.req.Body = rr.body
	w.status = http.StatusOK
	h.ServeHTTP(w, rr.req)
}

// handlerSession creates a travel session through h and returns its id.
func handlerSession(tb testing.TB, h http.Handler) string {
	tb.Helper()
	body, err := json.Marshal(map[string]any{"csv": travelCSV, "strategy": "lookahead-maxmin"})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	var s struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		tb.Fatal(err)
	}
	return s.ID
}

// BenchmarkWireAppendPath is the server side of one bulk wire append,
// in process: decode a 940×6 synthetic append frame, parse its rows
// under the session's typing, and stream them into the session. As in
// perfbench's bulk-wire workload, a session is created from a quarter
// of a 5,000-tuple instance and then takes four batches; a fresh
// session, created with the timer stopped, follows every fourth
// append. The frame reader persists across appends, as a connection's
// does.
func BenchmarkWireAppendPath(b *testing.B) {
	const tuples, batches, batchRows = 5000, 4, 940
	rel, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: tuples, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]string, rel.Len())
	for i := range rows {
		rows[i] = make([]string, rel.Schema().Len())
		for c, v := range rel.Tuple(i) {
			rows[i][c] = relation.EncodeCell(v)
		}
	}
	baseRows := tuples - batches*batchRows
	var csv strings.Builder
	csv.WriteString(strings.Join(rel.Schema().Names(), ",") + "\n")
	for _, row := range rows[:baseRows] {
		csv.WriteString(strings.Join(row, ",") + "\n")
	}
	var frames bytes.Buffer
	w := wire.NewWriter(&frames, 0)
	for k := 0; k < batches; k++ {
		lo := baseRows + k*batchRows
		if err := w.WriteAppend("s0000", rows[lo:lo+batchRows]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	r := wire.NewReader(&loopReader{data: frames.Bytes()}, 0)
	var req wire.Request
	srv := server.New()
	var id string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batches == 0 {
			b.StopTimer()
			if id != "" {
				if err := srv.WireDelete(id); err != nil {
					b.Fatal(err)
				}
			}
			if id, err = srv.WireCreate(csv.String(), "", 1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := r.ReadRequest(&req); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.WireAppend(id, req.Rows); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader replays the same bytes forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// chatBody is one chat-http-shaped dialogue's upload: the create body
// (three quarters of an instance as CSV, with the default strategy and
// a seed) and the append body (the remaining quarter as rows), both as
// encoding/json writes them.
type chatBody struct {
	create, append string
}

// chatBodies builds n uploads over the travel, synthetic and zipf
// generators at their default sizes, as perfbench's chat-http pool
// does.
func chatBodies(tb testing.TB, n int) []chatBody {
	tb.Helper()
	families := []string{"travel", "synthetic", "zipf"}
	out := make([]chatBody, n)
	for k := range out {
		seed := int64(7919 + k)
		full, _, err := workload.Instance(families[k%len(families)], workload.InstanceConfig{Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		base := (full.Len()*3 + 3) / 4
		baseRel := relation.New(full.Schema())
		var rows [][]string
		for i := 0; i < full.Len(); i++ {
			if i < base {
				baseRel.MustAppend(full.Tuple(i))
				continue
			}
			row := make([]string, full.Schema().Len())
			for c, v := range full.Tuple(i) {
				row[c] = relation.EncodeCell(v)
			}
			rows = append(rows, row)
		}
		var csv strings.Builder
		if err := relation.WriteCSV(&csv, baseRel); err != nil {
			tb.Fatal(err)
		}
		create, err := json.Marshal(map[string]any{"csv": csv.String(), "strategy": jim.DefaultStrategy, "seed": seed})
		if err != nil {
			tb.Fatal(err)
		}
		appendBody, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			tb.Fatal(err)
		}
		out[k] = chatBody{string(create), string(appendBody)}
	}
	return out
}

// BenchmarkHTTPCreateHandler is one server-side POST /v1/sessions of a
// chat-http-shaped upload, served by calling the handler directly:
// body read and decode, CSV parse, session build, registration and the
// summary reply. Every len(bodies) creates, a fresh server replaces
// the full one with the timer stopped.
func BenchmarkHTTPCreateHandler(b *testing.B) {
	bodies := chatBodies(b, 60)
	reqs := make([]*replayRequest, len(bodies))
	size := 0
	for k, body := range bodies {
		reqs[k] = newReplayRequest("POST", "/v1/sessions", body.create)
		size += len(body.create)
	}
	w := &nopResponseWriter{h: make(http.Header)}
	var h http.Handler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(reqs)
		if k == 0 {
			b.StopTimer()
			h = server.NewWith(server.Config{MaxBodyBytes: 1 << 20}).Handler()
			b.StartTimer()
		}
		reqs[k].serve(h, w)
		if w.status != http.StatusCreated {
			b.Fatalf("create: status %d", w.status)
		}
	}
	b.ReportMetric(float64(size)/float64(len(bodies)), "body-B")
}

// BenchmarkHTTPAppendHandler is one server-side POST /tuples of a
// chat-http-shaped arrival batch: body read and decode, row parsing,
// the append and its reply. Each session takes its one batch; every
// len(bodies) appends, the next round of sessions is created with the
// timer stopped.
func BenchmarkHTTPAppendHandler(b *testing.B) {
	bodies := chatBodies(b, 60)
	w := &nopResponseWriter{h: make(http.Header)}
	var reqs []*replayRequest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(bodies)
		if k == 0 {
			b.StopTimer()
			h := server.NewWith(server.Config{MaxBodyBytes: 1 << 20}).Handler()
			reqs = reqs[:0]
			for _, body := range bodies {
				id := createWith(b, h, body.create)
				rr := newReplayRequest("POST", "/v1/sessions/"+id+"/tuples", body.append)
				rr.h = h
				reqs = append(reqs, rr)
			}
			b.StartTimer()
		}
		reqs[k].serve(reqs[k].h, w)
		if w.status != http.StatusOK {
			b.Fatalf("append: status %d", w.status)
		}
	}
}

// createWith creates a session through h from a create body and
// returns its id.
func createWith(tb testing.TB, h http.Handler, body string) string {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	var s struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		tb.Fatal(err)
	}
	return s.ID
}
