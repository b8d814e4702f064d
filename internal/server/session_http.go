package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/wire"
)

// This file serves the per-session routes, /v1/sessions/{id}/*: the
// session lock wrappers and the dialogue, append, result and export
// handlers.

type sessionHandler func(http.ResponseWriter, *http.Request, string, *liveSession)

// readSession resolves {id} and runs h under the session's read lock:
// many such requests proceed concurrently on one session.
func (s *Server) readSession(h sessionHandler) http.HandlerFunc {
	return s.withSession(h, false)
}

// writeSession resolves {id} and runs h under the session's write
// lock, excluding all other requests on that session only.
func (s *Server) writeSession(h sessionHandler) http.HandlerFunc {
	return s.withSession(h, true)
}

func (s *Server) withSession(h sessionHandler, write bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ls, ok := s.resolve(w, r)
		if !ok {
			return
		}
		if write {
			ls.mu.Lock()
			defer ls.mu.Unlock()
		} else {
			ls.mu.RLock()
			defer ls.mu.RUnlock()
		}
		h(w, r, id, ls)
	}
}

// resolve finds the live session {id} names, without locking it. When
// the session lives elsewhere or not at all, it writes the redirect or
// error reply and reports false.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (string, *liveSession, bool) {
	id := r.PathValue("id")
	if !s.ownsID(id) {
		s.routeAway(w, r, id)
		return id, nil, false
	}
	ls, err := s.lookup(id)
	if err != nil {
		writeTypedError(w, err)
		return id, nil, false
	}
	return id, ls, true
}

// summarize captures a summary. Caller holds ls.mu (either mode).
func summarize(id string, ls *liveSession) summary {
	st := ls.sess.State()
	p := st.Progress()
	return summary{
		id:          id,
		strategy:    ls.sess.Strategy(),
		created:     ls.createdAt,
		schema:      st.Relation().Schema(),
		tuples:      p.Total,
		base:        st.BaseLen(),
		appended:    st.Appended(),
		labels:      p.Explicit,
		implied:     p.Implied,
		informative: p.Informative,
		done:        st.Done(),
	}
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	sum := summarize(id, ls)
	writeSummary(w, http.StatusOK, &sum)
}

// writeSummary writes a summary reply.
func writeSummary(w http.ResponseWriter, status int, sum *summary) {
	hb := getHTTPBuf()
	defer hb.release()
	enc := hb.encoder()
	enc.summary(sum)
	hb.send(w, status, &enc)
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	hb := getHTTPBuf()
	defer hb.release()
	s.writeStep(w, hb, id, ls, nil, 1)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	k := 3
	if kq := r.URL.Query().Get("k"); kq != "" {
		parsed, err := strconv.Atoi(kq)
		if err != nil || parsed < 1 {
			writeError(w, jim.CodeBadInput, "bad k %q", kq)
			return
		}
		k = parsed
	}
	indices, err := s.rankK(ls, k)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	hb := getHTTPBuf()
	defer hb.release()
	enc := hb.encoder()
	enc.topKReply(ls.sess.Done(), ls.sess.Relation(), ls.cols, indices)
	hb.send(w, http.StatusOK, &enc)
}

type labelRequest struct {
	Index int    `json:"index"`
	Label string `json:"label"` // "+", "-", or "skip"
}

func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	hb := getHTTPBuf()
	defer hb.release()
	s.limitBody(w, r)
	var req labelRequest
	if err := hb.decodeLabel(r.Body, &req); err != nil {
		bodyError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	a, err := s.applyLabel(id, ls, req.Index, req.Label)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	enc := hb.encoder()
	enc.answered(&a)
	hb.send(w, http.StatusOK, &enc)
}

// parseLabel reads the /v1 label spellings into the label the apply
// layer takes.
func parseLabel(label string) (wire.Label, error) {
	switch label {
	case "+", "yes", "y":
		return wire.Positive, nil
	case "-", "no", "n":
		return wire.Negative, nil
	case "skip", "s", "?":
		return wire.Skip, nil
	}
	return 0, &jim.Error{Code: jim.CodeBadInput, Message: fmt.Sprintf("unknown label %q (want +, -, or skip)", label)}
}

// applyLabel is the HTTP codec of one answer: the label parsed, then
// applyAnswer (apply.go). The caller holds the session's write lock.
func (s *Server) applyLabel(id string, ls *liveSession, index int, label string) (answered, error) {
	l, err := parseLabel(label)
	if err != nil {
		return answered{}, err
	}
	newly, err := s.applyAnswer(id, ls, index, l)
	if err != nil {
		return answered{}, err
	}
	return answered{newly: newly, progress: ls.sess.Progress(), done: ls.sess.Done()}, nil
}

// stepRequest drives one full dialogue step in a single round trip:
// optionally answer the previous proposal, then return the next one.
// label may be empty (propose only — the natural first call); when it
// is set, index must be too. k asks for a ranked batch instead of a
// single proposal.
type stepRequest struct {
	Index *int   `json:"index,omitempty"`
	Label string `json:"label,omitempty"` // "+", "-", "skip", or empty
	K     int    `json:"k,omitempty"`     // proposals wanted; 0 or 1 = single
}

// handleStep atomically applies an answer and proposes what to ask
// next — the one-round-trip form of POST /label followed by GET /next
// (or /topk). The whole step runs under the session's write lock, so
// the proposal is ranked against exactly the state the answer left
// behind; an answer that fails leaves the session unchanged and
// returns the same error envelope POST /label would. k = 0 or 1 asks
// for the single routed proposal, k > 1 for the ranked batch (see
// propose).
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	hb := getHTTPBuf()
	defer hb.release()
	s.limitBody(w, r)
	var req stepRequest
	if err := hb.decodeStep(r.Body, &req); err != nil {
		bodyError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.K < 0 {
		writeError(w, jim.CodeBadInput, "bad k %d", req.K)
		return
	}
	var applied *answered
	switch {
	case req.Label != "" && req.Index == nil:
		writeError(w, jim.CodeBadInput, "label %q without an index", req.Label)
		return
	case req.Label == "" && req.Index != nil:
		writeError(w, jim.CodeBadInput, "index %d without a label", *req.Index)
		return
	case req.Label != "":
		a, err := s.applyLabel(id, ls, *req.Index, req.Label)
		if err != nil {
			writeTypedError(w, err)
			return
		}
		applied = &a
	}
	s.writeStep(w, hb, id, ls, applied, max(req.K, 1))
}

// writeStep renders the proposal half of GET /next and POST /step:
// propose's k-way switch, after whatever answer was applied.
func (s *Server) writeStep(w http.ResponseWriter, hb *httpBuf, id string, ls *liveSession, applied *answered, k int) {
	var buf [1]int
	indices, err := s.propose(id, ls, k, buf[:0])
	if err != nil {
		writeTypedError(w, err)
		return
	}
	enc := hb.encoder()
	enc.stepReply(applied, ls.sess.Done(), ls.sess.Relation(), ls.cols, indices, k)
	hb.send(w, http.StatusOK, &enc)
}

// appendRequest carries arrival tuples in one of two encodings:
// CSV with a header that must match the session schema exactly, or
// raw string rows parsed cell-by-cell (values.Parse inference, same
// as untyped CSV columns). Exactly one of the two must be set.
// decodeAppend (httpcodec.go) decodes it.
type appendRequest struct {
	CSV  string     `json:"csv,omitempty"`
	Rows [][]string `json:"rows,omitempty"`
}

// handleAppend streams new tuples into a live session — the write-path
// counterpart of create for instances that grow while the user labels.
// Arrivals whose schema does not match the session's fail with 409
// Conflict and leave the session untouched. The body is read and
// parsed before the session's write lock is taken — parsing reads
// only the immutable schema and typing — so a slow upload does not
// stall the session's other requests.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	id, ls, ok := s.resolve(w, r)
	if !ok {
		return
	}
	hb := getHTTPBuf()
	defer hb.release()
	s.limitBody(w, r)
	var req appendRequest
	if err := hb.decodeAppend(r.Body, &req); err != nil {
		bodyError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	var (
		b   *relation.Batch
		err error
	)
	switch {
	case req.CSV != "" && req.Rows != nil:
		writeError(w, jim.CodeBadInput, "pass csv or rows, not both")
		return
	case req.CSV != "":
		b, err = ls.sess.ParseCSV(req.CSV)
	case req.Rows != nil:
		b, err = ls.sess.ParseRows(req.Rows)
	default:
		writeError(w, jim.CodeBadInput, "empty append: pass csv or rows")
		return
	}
	if err != nil {
		writeTypedError(w, err)
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	newly, err := s.applyAppend(id, ls, b)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	p := ls.sess.Progress()
	enc := hb.encoder()
	enc.appendReply(b.Len(), newly, p, ls.sess.Done())
	hb.send(w, http.StatusOK, &enc)
}

type resultResponse struct {
	Done       bool   `json:"done"`
	Predicate  string `json:"predicate"`
	Atoms      string `json:"atoms"`
	SQL        string `json:"sql"`
	Certain    string `json:"certain,omitempty"`
	Undecided  string `json:"undecided,omitempty"`
	Consistent int    `json:"consistent_queries,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	res, q, err := result(ls)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	st := ls.sess.State()
	names := st.Relation().Schema().Names()
	resp := resultResponse{
		Done:      res.Done,
		Predicate: res.Predicate,
		Atoms:     q.FormatAtoms(names),
		SQL:       res.SQL,
	}
	// Certainty panel for demo-scale instances only.
	if vs, err := st.VersionSpace(100_000); err == nil {
		resp.Certain = jim.FormatPairs(vs.CertainPairs(), names)
		resp.Undecided = jim.FormatPairs(vs.UndecidedPairs(), names)
		resp.Consistent = st.CountConsistent()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExport buffers the session file before writing, so a Save
// failure still yields a clean error envelope instead of a committed
// 200 with a truncated body (session files are demo-scale; buffering
// one is cheap next to streaming invalid JSON).
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	meta := session.Meta{Strategy: ls.sess.Strategy(), CreatedAt: ls.createdAt}
	var buf bytes.Buffer
	if err := session.Save(&buf, ls.sess.State(), meta); err != nil {
		writeError(w, jim.CodeInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = buf.WriteTo(w)
}
