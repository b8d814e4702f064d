package server_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/wire"
)

// signalBody closes started on the first Read of a request body.
type signalBody struct {
	io.ReadCloser
	once    sync.Once
	started chan struct{}
}

func (b *signalBody) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.started) })
	return b.ReadCloser.Read(p)
}

// TestAppendUploadDoesNotBlockSession: POST /tuples reads and parses
// its body before taking the session's write lock, so an upload that
// stalls halfway does not hold up a concurrent GET /result on the same
// session.
func TestAppendUploadDoesNotBlockSession(t *testing.T) {
	started := make(chan struct{})
	h := server.New().Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/tuples") {
			r.Body = &signalBody{ReadCloser: r.Body, started: started}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	s := createSession(t, ts, "")
	base := ts.URL + "/v1/sessions/" + s.ID

	pr, pw := io.Pipe()
	posted := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/tuples", "application/json", pr)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = errors.New("POST /tuples: status " + resp.Status)
			}
		}
		posted <- err
	}()
	if _, err := pw.Write([]byte(`{"rows":[["Lyon","Nice",`)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the /tuples handler never read its body")
	}

	got := make(chan error, 1)
	go func() { got <- callJSON("GET", base+"/result", nil, http.StatusOK, nil) }()
	select {
	case err := <-got:
		if err != nil {
			t.Error(err)
		}
		got = nil
	case <-time.After(5 * time.Second):
		t.Error("GET /result waited for a stalled POST /tuples upload")
	}

	if _, err := pw.Write([]byte(`"AF","Nice","AF"]]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-posted; err != nil {
		t.Fatal(err)
	}
	if got != nil {
		<-got
	}
	var sum summary
	doJSON(t, "GET", base, nil, http.StatusOK, &sum)
	if sum.Tuples != 13 {
		t.Errorf("after the append the session has %d tuples, want 13", sum.Tuples)
	}
}

// TestWireAppendKeepsNothingOfFrame: append rows arrive as views into
// the connection's frame buffer, which the next frame overwrites. The
// session must keep copies: string cells appended over a real
// connection read back unchanged via /export after a second frame of
// the same length reused the buffer.
func TestWireAppendKeepsNothingOfFrame(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	_, addr := startWire(t, srv)
	c, err := wire.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Create(travelCSV, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cell for cell the same lengths, so both frames are the same size.
	first := [][]string{{"Lyon", "Nice", "AF", "Nice", "AF"}, {"Oslo", "Rome", "SK", "Rome", "SK"}}
	second := [][]string{{"Kiev", "Riga", "PS", "Riga", "BT"}, {"Bonn", "Bern", "LH", "Bern", "LX"}}
	for _, rows := range [][][]string{first, second} {
		if _, err := c.Append(id, rows); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/export")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d, %v", resp.StatusCode, err)
	}
	st, _, err := session.LoadBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	rel := st.Relation()
	want := append(append([][]string{}, first...), second...)
	if rel.Len() != 12+len(want) {
		t.Fatalf("exported %d tuples, want %d", rel.Len(), 12+len(want))
	}
	for i, row := range want {
		tu := rel.Tuple(12 + i)
		for c, cell := range row {
			if got := tu[c].String(); got != cell {
				t.Errorf("appended tuple %d column %d reads %q, want %q", i, c, got, cell)
			}
		}
	}
}

// TestWireAppendErrorKeepsNothingOfFrame: a cell that fails to parse
// under a typed int column is reported by an error whose whole chain —
// down to the strconv.NumError that records its input — reads the
// same after the next frame overwrote the buffer the cell came from.
func TestWireAppendErrorKeepsNothingOfFrame(t *testing.T) {
	srv := server.New()
	id, err := srv.WireCreate("n:int,name\n1,a\n2,b\n", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, 0)
	for _, rows := range [][][]string{{{"12x", "c"}}, {{"99y", "d"}}} {
		if err := w.WriteAppend(id, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(&buf, 0)
	var req wire.Request
	if err := r.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	_, appendErr := srv.WireAppend(id, req.Rows)
	if appendErr == nil {
		t.Fatal("appending \"12x\" under an int column succeeded")
	}
	chain := func() []string {
		var texts []string
		for e := appendErr; e != nil; e = errors.Unwrap(e) {
			texts = append(texts, e.Error())
		}
		return texts
	}
	before := chain()
	if err := r.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	if req.Rows[0][0] != "99y" {
		t.Fatalf("second frame decoded %q", req.Rows)
	}
	after := chain()
	if strings.Join(before, "\n") != strings.Join(after, "\n") {
		t.Errorf("error chain changed when the frame buffer was reused:\nbefore %q\nafter  %q", before, after)
	}
	var ne *strconv.NumError
	if !errors.As(appendErr, &ne) || ne.Num != "12x" {
		t.Errorf("error chain holds NumError %v, want one for %q", ne, "12x")
	}
}
