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

	"repro/internal/server"
	"repro/internal/wire"
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
// envelope whose encode path the writeJSON buffer pool serves.
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
