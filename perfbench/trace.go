package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/wire"
)

// span is one timed call across a layer boundary. Spans of one request
// share a session id and nest in time, because each client keeps at
// most one request per session in flight; link assigns parents.
type span struct {
	name string
	// node is the server the span ran on (client spans: the server the
	// request went to), so replication on a follower never nests under
	// the owner's requests for the same session.
	node string
	sid  string
	// seq numbers a client's operations on one session; the request id
	// of a client span and of everything nested under it is sid/seq.
	seq        int
	start, end int64 // ns since the tracer's epoch
	// bytes is the response body size of an HTTP handler span.
	bytes  int
	parent int
}

func (s *span) dur() int64 { return s.end - s.start }

// rank orders the layers: a span may only nest under one of lower rank.
func rank(name string) int {
	switch {
	case strings.HasPrefix(name, "client."):
		return 0
	case strings.HasPrefix(name, "store."):
		return 2
	}
	return 1 // http.*, server.*, cluster.*
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// link sets every span's parent: the innermost span of lower rank on
// the same node and session that contains it in time.
func (t *tracer) link() {
	groups := map[string][]int{}
	for i := range t.spans {
		k := t.spans[i].node + "\x00" + t.spans[i].sid
		groups[k] = append(groups[k], i)
	}
	for _, idx := range groups {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := &t.spans[idx[a]], &t.spans[idx[b]]
			if sa.start != sb.start {
				return sa.start < sb.start
			}
			if ra, rb := rank(sa.name), rank(sb.name); ra != rb {
				return ra < rb
			}
			return sa.end > sb.end
		})
		var stack []int
		for _, i := range idx {
			s := &t.spans[i]
			for len(stack) > 0 && t.spans[stack[len(stack)-1]].end < s.end {
				stack = stack[:len(stack)-1]
			}
			for j := len(stack) - 1; j >= 0; j-- {
				if rank(t.spans[stack[j]].name) < rank(s.name) {
					s.parent = stack[j]
					break
				}
			}
			stack = append(stack, i)
		}
	}
}

// children indexes the linked spans by parent.
func (t *tracer) children() [][]int {
	kids := make([][]int, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	return kids
}

// interval is a half-open [start, end) stretch of trace time.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its child
// spans cover (overlapping children are counted once).
func selfTime(parent interval, kids []interval) int64 {
	ks := append([]interval(nil), kids...)
	sort.Slice(ks, func(a, b int) bool { return ks[a].start < ks[b].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	flush := func() {
		if cur.end > cur.start {
			covered += cur.end - cur.start
		}
	}
	for _, k := range ks {
		if k.start < parent.start {
			k.start = parent.start
		}
		if k.end > parent.end {
			k.end = parent.end
		}
		if k.end <= k.start {
			continue
		}
		if cur.end < 0 || k.start > cur.end {
			flush()
			cur = k
			continue
		}
		if k.end > cur.end {
			cur.end = k.end
		}
	}
	flush()
	return parent.end - parent.start - covered
}

// write saves the spans as JSON lines: name, node, session, request id,
// parent index, start and end in ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		req := ""
		for r := i; r >= 0; r = t.spans[r].parent {
			if rank(t.spans[r].name) == 0 {
				req = fmt.Sprintf("%s/%d", s.sid, t.spans[r].seq)
				break
			}
		}
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Node   string `json:"node"`
			SID    string `json:"sid"`
			Req    string `json:"req,omitempty"`
			Parent int    `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.name, s.node, s.sid, req, s.parent, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler times every request the HTTP API serves.
type tracedHandler struct {
	h    http.Handler
	tr   *tracer
	node string
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, sid := classifyHTTP(r)
	cw := &countingWriter{ResponseWriter: w, keep: name == "http.create"}
	start := t.tr.now()
	t.h.ServeHTTP(cw, r)
	end := t.tr.now()
	if cw.keep {
		var created struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(cw.body, &created) == nil {
			sid = created.ID
		}
	}
	t.tr.add(span{name: name, node: t.node, sid: sid, start: start, end: end, bytes: cw.n})
}

// classifyHTTP names a request's span after its route and extracts the
// session id from the path.
func classifyHTTP(r *http.Request) (name, sid string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) >= 2 && parts[0] == "v1" && parts[1] == "sessions" {
		switch {
		case len(parts) == 2 && r.Method == http.MethodPost:
			return "http.create", ""
		case len(parts) == 3 && r.Method == http.MethodDelete:
			return "http.delete", parts[2]
		case len(parts) == 4:
			return "http." + parts[3], parts[2]
		}
	}
	return "http." + strings.Join(parts, "."), ""
}

// countingWriter counts response body bytes and keeps the body of a
// create for its session id.
type countingWriter struct {
	http.ResponseWriter
	n    int
	keep bool
	body []byte
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	if c.keep {
		c.body = append(c.body, p...)
	}
	return c.ResponseWriter.Write(p)
}

// tracedBackend times the server's wire.Backend calls.
type tracedBackend struct {
	b    wire.Backend
	tr   *tracer
	node string
}

// tracedRecorderBackend also forwards wire.OpRecorder, so per-op
// latency still reaches the server's /stats.
type tracedRecorderBackend struct {
	*tracedBackend
	rec wire.OpRecorder
}

func (t tracedRecorderBackend) RecordWireOp(pattern string, d time.Duration, isErr bool) {
	t.rec.RecordWireOp(pattern, d, isErr)
}

// traceBackend wraps b, keeping whichever optional interfaces it has.
func traceBackend(b wire.Backend, tr *tracer, node string) wire.Backend {
	tb := &tracedBackend{b: b, tr: tr, node: node}
	if rec, ok := b.(wire.OpRecorder); ok {
		return tracedRecorderBackend{tb, rec}
	}
	return tb
}

func (t *tracedBackend) record(name, sid string, start int64) {
	t.tr.add(span{name: name, node: t.node, sid: sid, start: start, end: t.tr.now()})
}

func (t *tracedBackend) WireCreate(csv, strategy string, seed int64) (string, error) {
	start := t.tr.now()
	id, err := t.b.WireCreate(csv, strategy, seed)
	t.record("server.create", id, start)
	return id, err
}

func (t *tracedBackend) WireStep(id string, answers []wire.Answer, k int, out *wire.StepResult) error {
	start := t.tr.now()
	err := t.b.WireStep(id, answers, k, out)
	t.record("server.step", id, start)
	return err
}

func (t *tracedBackend) WireAppend(id string, rows [][]string) (wire.AppendResult, error) {
	start := t.tr.now()
	res, err := t.b.WireAppend(id, rows)
	t.record("server.append", id, start)
	return res, err
}

func (t *tracedBackend) WireResult(id string) (wire.ResultData, error) {
	start := t.tr.now()
	res, err := t.b.WireResult(id)
	t.record("server.result", id, start)
	return res, err
}

func (t *tracedBackend) WireDelete(id string) error {
	start := t.tr.now()
	err := t.b.WireDelete(id)
	t.record("server.delete", id, start)
	return err
}

// tracedStore times the session store. The server decides durability
// from Name, which is forwarded unchanged.
type tracedStore struct {
	s    store.Store
	tr   *tracer
	node string
}

func (t *tracedStore) record(name, sid string, start int64) {
	t.tr.add(span{name: name, node: t.node, sid: sid, start: start, end: t.tr.now()})
}

func (t *tracedStore) Name() string { return t.s.Name() }

func (t *tracedStore) AppendEvent(id string, ev store.Event) error {
	start := t.tr.now()
	err := t.s.AppendEvent(id, ev)
	t.record("store.append", id, start)
	return err
}

func (t *tracedStore) Snapshot(id string, snap store.Snapshot) error {
	start := t.tr.now()
	err := t.s.Snapshot(id, snap)
	t.record("store.snapshot", id, start)
	return err
}

func (t *tracedStore) LoadAll() ([]store.Saved, error) {
	start := t.tr.now()
	saved, err := t.s.LoadAll()
	t.record("store.loadall", "", start)
	return saved, err
}

func (t *tracedStore) Compact(id string) error {
	start := t.tr.now()
	err := t.s.Compact(id)
	t.record("store.compact", id, start)
	return err
}

func (t *tracedStore) Close() error { return t.s.Close() }

// tracedApplier times the follower's side of replication.
type tracedApplier struct {
	a    cluster.Applier
	tr   *tracer
	node string
}

func (t *tracedApplier) record(name, sid string, start int64) {
	t.tr.add(span{name: name, node: t.node, sid: sid, start: start, end: t.tr.now()})
}

func (t *tracedApplier) ApplySnapshot(id string, snap *store.Snapshot) error {
	start := t.tr.now()
	err := t.a.ApplySnapshot(id, snap)
	t.record("cluster.apply_snapshot", id, start)
	return err
}

func (t *tracedApplier) ApplyEvent(id string, ev store.Event) error {
	start := t.tr.now()
	err := t.a.ApplyEvent(id, ev)
	t.record("cluster.apply_event", id, start)
	return err
}

func (t *tracedApplier) DropReplica(id string) error {
	start := t.tr.now()
	err := t.a.DropReplica(id)
	t.record("cluster.drop", id, start)
	return err
}
