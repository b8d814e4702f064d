package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/wire"
)

// aliasBodies returns a create body and an append body whose strings
// all hold escapes and non-ASCII, drawn from seed, plus the CSV and
// rows they decode to.
func aliasBodies(t *testing.T, seed int64) (create, appendBody, csv string, rows [][]string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cell := func() string {
		parts := []string{"a", "é", `q"`, `b\s`, "&", "<", "x/y", "\t", "€", "z"}
		var b strings.Builder
		for n := 1 + r.Intn(4); n > 0; n-- {
			b.WriteString(parts[r.Intn(len(parts))])
		}
		return b.String()
	}
	const width = 4
	var b strings.Builder
	for c := 0; c < width; c++ {
		fmt.Fprintf(&b, "c%d_%s,", c, strings.NewReplacer(`"`, "", ",", "", "\t", "").Replace(cell()))
	}
	csv = strings.TrimSuffix(b.String(), ",") + "\n"
	for i := 0; i < 6+r.Intn(6); i++ {
		for c := 0; c < width; c++ {
			if c > 0 {
				csv += ","
			}
			csv += []string{"é", "x/y", "<a>", "z&"}[r.Intn(3)]
		}
		csv += "\n"
	}
	for i := 0; i < 3+r.Intn(4); i++ {
		row := make([]string, width)
		for c := range row {
			row[c] = cell()
		}
		rows = append(rows, row)
	}
	cb, err := json.Marshal(map[string]any{"csv": csv, "seed": seed})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(cb), string(ab), csv, rows
}

// inBuffer reports whether s lies inside b.
func inBuffer(s string, b []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return len(s) > 0 && p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
}

// TestDecodeBodiesAreViews checks that the bodies clients send —
// escapes, \u escapes and non-ASCII included — take the fast path: the
// decoded csv and cells are views of the request buffer, not copies
// made by json.Unmarshal.
func TestDecodeBodiesAreViews(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		create, appendBody, csv, rows := aliasBodies(t, seed)
		hb := &httpBuf{}
		var cr createRequest
		if err := hb.decodeCreate(strings.NewReader(create), &cr); err != nil {
			t.Fatal(err)
		}
		if cr.CSV != csv || !inBuffer(cr.CSV, hb.b) {
			t.Fatalf("create %s: csv %q decoded off the fast path (want %q)", create, cr.CSV, csv)
		}
		var ar appendRequest
		if err := hb.decodeAppend(strings.NewReader(appendBody), &ar); err != nil {
			t.Fatal(err)
		}
		for i, row := range ar.Rows {
			for j, c := range row {
				if c != rows[i][j] || !inBuffer(c, hb.b) {
					t.Fatalf("append %s: cell %d,%d %q decoded off the fast path (want %q)", appendBody, i, j, c, rows[i][j])
				}
			}
		}
	}
}

// TestPooledBuffersDoNotAlias guards the views: a session created and
// appended to through the fast path must keep nothing of its request
// buffers. After more creates and appends with other bodies have
// reused the pooled buffers, every attribute name and cell of the
// first session must still equal an uninterrupted control built from
// copies of its inputs.
func TestPooledBuffersDoNotAlias(t *testing.T) {
	s := NewWith(Config{MaxBodyBytes: 1 << 20})
	h := s.Handler()
	serve := func(path, body string, status int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != status {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	create := func(seed int64) (string, string, [][]string) {
		cb, ab, csv, rows := aliasBodies(t, seed)
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(serve("/v1/sessions", cb, 201), &created); err != nil {
			t.Fatal(err)
		}
		serve("/v1/sessions/"+created.ID+"/tuples", ab, 200)
		return created.ID, csv, rows
	}
	id, csv, rows := create(1)

	control, typing, err := relation.ReadCSVString(strings.Clone(csv), relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := relation.ParseRows(control.Schema(), typing, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := control.AppendBatch(arrivals); err != nil {
		t.Fatal(err)
	}

	for seed := int64(2); seed < 40; seed++ {
		create(seed)
	}
	ls, ok := s.sessions.get(id)
	if !ok {
		t.Fatalf("session %s gone", id)
	}
	got := ls.sess.Relation()
	if !got.Schema().Equal(control.Schema()) {
		t.Fatalf("schema %v, control %v", got.Schema().Names(), control.Schema().Names())
	}
	for c, name := range control.Schema().Names() {
		if got.Schema().Name(c) != name {
			t.Fatalf("attribute %d is %q, control %q", c, got.Schema().Name(c), name)
		}
	}
	if got.Len() != control.Len() {
		t.Fatalf("%d tuples, control %d", got.Len(), control.Len())
	}
	for i := 0; i < control.Len(); i++ {
		for c, want := range control.Tuple(i) {
			if v := got.Tuple(i)[c]; !v.Equal(want) || v.String() != want.String() {
				t.Fatalf("tuple %d column %d is %v, control %v", i, c, v, want)
			}
		}
	}
}

// TestWireCreateDoesNotAlias is TestPooledBuffersDoNotAlias for the
// wire transport: a create's CSV and an append's cells are views into
// the connection's frame buffer. A session opened over a real
// connection must keep nothing of them: after further creates and
// appends on the same connection have overwritten the buffer, every
// attribute name and cell of the first session must still equal an
// uninterrupted control built from copies of its inputs. The largest
// CSV goes first, so every later frame fits the buffer it sized and
// is decoded over its bytes.
func TestWireCreateDoesNotAlias(t *testing.T) {
	s := NewWith(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := &wire.Server{Backend: s}
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Shutdown(context.Background()) })
	c, err := wire.Dial(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type input struct {
		csv  string
		rows [][]string
	}
	inputs := make([]input, 0, 40)
	for seed := int64(1); seed <= 40; seed++ {
		_, _, csv, rows := aliasBodies(t, seed)
		inputs = append(inputs, input{csv, rows})
	}
	slices.SortStableFunc(inputs, func(a, b input) int { return len(b.csv) - len(a.csv) })
	first := inputs[0]
	id, err := c.Create(first.csv, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(id, first.rows); err != nil {
		t.Fatal(err)
	}

	control, typing, err := relation.ReadCSVString(strings.Clone(first.csv), relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := relation.ParseRows(control.Schema(), typing, first.rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := control.AppendBatch(arrivals); err != nil {
		t.Fatal(err)
	}

	for _, in := range inputs[1:] {
		other, err := c.Create(in.csv, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append(other, in.rows); err != nil {
			t.Fatal(err)
		}
	}
	ls, ok := s.sessions.get(id)
	if !ok {
		t.Fatalf("session %s gone", id)
	}
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	got := ls.sess.Relation()
	for c, name := range control.Schema().Names() {
		if got.Schema().Len() != control.Schema().Len() || got.Schema().Name(c) != name {
			t.Fatalf("attributes %q, control %q", got.Schema().Names(), control.Schema().Names())
		}
	}
	if got.Len() != control.Len() {
		t.Fatalf("%d tuples, control %d", got.Len(), control.Len())
	}
	for i := 0; i < control.Len(); i++ {
		for c, want := range control.Tuple(i) {
			if v := got.Tuple(i)[c]; !v.Equal(want) || v.String() != want.String() {
				t.Fatalf("tuple %d column %d is %v, control %v", i, c, v, want)
			}
		}
	}
}
