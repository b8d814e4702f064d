package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	jim "repro"
)

// sessionSummary is the struct the hand-written summary replaced;
// encoding/json with the writeJSON settings is its reference.
type sessionSummary struct {
	ID             string    `json:"id"`
	Strategy       string    `json:"strategy"`
	CreatedAt      time.Time `json:"created_at"`
	Tuples         int       `json:"tuples"`
	BaseTuples     int       `json:"base_tuples"`
	AppendedTuples int       `json:"appended_tuples"`
	Attributes     []string  `json:"attributes"`
	Labels         int       `json:"labels"`
	Implied        int       `json:"implied"`
	Informative    int       `json:"informative"`
	Done           bool      `json:"done"`
}

// referenceSummary builds the reference struct from the session the
// way the reflective summary did.
func referenceSummary(id string, ls *liveSession) sessionSummary {
	st := ls.sess.State()
	p := st.Progress()
	return sessionSummary{
		ID:             id,
		Strategy:       ls.sess.Strategy(),
		CreatedAt:      ls.createdAt,
		Tuples:         p.Total,
		BaseTuples:     st.BaseLen(),
		AppendedTuples: st.Appended(),
		Attributes:     st.Relation().Schema().Names(),
		Labels:         p.Explicit,
		Implied:        p.Implied,
		Informative:    p.Informative,
		Done:           st.Done(),
	}
}

// summaryCSV is an instance whose attribute names need JSON escaping:
// a quote, HTML characters, a backslash, non-ASCII and U+2028.
func summaryCSV(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	w := csv.NewWriter(&b)
	rows := [][]string{
		{`q"uote`, "<tag>", "a&b", `back\slash`, "é€😀", "line\u2028sep"},
		{"1", "1", "2", "x", "y", "1"},
		{"2", "3", "2", "x", "x", "2"},
		{"5", "5", "5", "5", "5", "5"},
		{"a", "b", "a", "b", "a", "b"},
		{"7", "8", "9", "7", "8", "9"},
	}
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSummaryMatchesEncodingJSON holds the hand-written summary to
// encoding/json's encoding of sessionSummary: in the create reply, GET
// /v1/sessions/{id} and the list page, for a session just created,
// appended to and converged, with created_at times carrying
// nanoseconds and non-UTC zones.
func TestSummaryMatchesEncodingJSON(t *testing.T) {
	zone := time.FixedZone("", 5*3600+30*60)
	clock := time.Date(2026, 3, 4, 5, 6, 7, 123456789, zone)
	s := NewWith(Config{Now: func() time.Time { return clock }})
	h := s.Handler()
	serve := func(method, path, body string, status int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != status {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	body, err := json.Marshal(summaryCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	got := serve("POST", "/v1/sessions", `{"csv":`+string(body)+`,"seed":3}`, 201)
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(got, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID
	ls, ok := s.sessions.get(id)
	if !ok {
		t.Fatalf("no session %q after create: %s", id, got)
	}
	check := func(what string, got []byte, want any) {
		t.Helper()
		if w := referenceJSON(t, want); !bytes.Equal(got, w) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, w)
		}
	}
	check("create", got, referenceSummary(id, ls))

	times := []time.Time{
		clock,
		time.Date(1999, 12, 31, 23, 59, 59, 100, time.FixedZone("", -(9*3600+45*60))),
		time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC),
		time.Date(2030, 1, 2, 3, 4, 5, 120000000, time.Local),
	}
	states := []struct {
		name    string
		advance func()
	}{
		{"created", func() {}},
		{"appended", func() {
			serve("POST", "/v1/sessions/"+id+"/tuples", `{"rows":[["9","9","1","2","3","4"],["é","é","é","é","é","é"]]}`, 200)
		}},
		{"converged", func() {
			for !ls.sess.Done() {
				i, ok := ls.sess.Propose()
				if !ok {
					t.Fatal("no proposal before convergence")
				}
				if _, err := ls.sess.Answer(i, jim.Negative); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, st := range states {
		st.advance()
		for _, at := range times {
			ls.createdAt = at
			ref := referenceSummary(id, ls)
			check(st.name+" summary", serve("GET", "/v1/sessions/"+id, "", 200), ref)
			check(st.name+" list", serve("GET", "/v1/sessions", "", 200), struct {
				Sessions []sessionSummary `json:"sessions"`
				Total    int              `json:"total"`
				Limit    int              `json:"limit"`
				Offset   int              `json:"offset"`
				Store    storeStats       `json:"store"`
			}{[]sessionSummary{ref}, 1, DefaultListLimit, 0, s.storeStats()})
		}
	}
	if ls.sess.Progress().Explicit == 0 || ls.sess.State().Appended() != 2 {
		t.Fatalf("the session was not appended to and labeled: %+v", ls.sess.Progress())
	}
}
