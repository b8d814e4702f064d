package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	jim "repro"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// APIVersion is the version segment of the current wire contract.
const APIVersion = "v1"

// DefaultListLimit is the page size GET /v1/sessions serves when the
// request names none; MaxListLimit caps what a client may ask for.
const (
	DefaultListLimit = 50
	MaxListLimit     = 500
)

// Config tunes the service. The zero value means no cap, no eviction,
// and the real clock — the demo defaults.
type Config struct {
	// MaxSessions caps concurrently live sessions; creates beyond it
	// fail with 429 Too Many Requests. <= 0 means unlimited.
	MaxSessions int
	// IdleTTL evicts sessions not accessed for this long. <= 0 disables
	// eviction.
	IdleTTL time.Duration
	// MaxBodyBytes caps the request body of every endpoint that reads
	// one (create, import, append, label, step); larger bodies fail with
	// 413 Request Entity Too Large instead of buffering an arbitrarily
	// large payload in memory. <= 0 means unlimited.
	MaxBodyBytes int64
	// Store persists sessions across restarts. nil (and store.NewMem())
	// means no durability — the pre-durability in-RAM behavior. With a
	// durable backend, every mutating request appends a WAL event after
	// its in-memory apply, and Restore rebuilds the table at startup.
	Store store.Store
	// SnapshotEvery folds a session's WAL into a fresh snapshot after
	// this many events (the size half of the snapshot policy). <= 0
	// means DefaultSnapshotEvery. Ignored without a durable store.
	SnapshotEvery int
	// SnapshotMaxAge is the age half of the snapshot policy: Sweep
	// re-snapshots sessions whose WAL has been accumulating for longer
	// than this. <= 0 disables age-based snapshots.
	SnapshotMaxAge time.Duration
	// Now is the clock; nil means time.Now. Injectable for tests.
	Now func() time.Time
}

// DefaultSnapshotEvery is the WAL length at which a session's state is
// folded into a fresh snapshot: large enough that snapshot encoding is
// rare next to event appends, small enough that recovery replays at
// most a few hundred events per session.
const DefaultSnapshotEvery = 256

// Server is a multi-session JIM service: a sharded in-RAM session
// table serving requests, with an optional durable store underneath
// it. The zero value is not usable; call New or NewWith, and — with a
// durable store — Restore before serving traffic.
type Server struct {
	cfg      Config
	sessions *table
	metrics  *metrics
	nextID   atomic.Int64
	// durable is true when cfg.Store is a real (non-mem) backend; it
	// gates every persistence hook so the memstore path stays free.
	durable bool
	// snapshotEvery is the normalized Config.SnapshotEvery.
	snapshotEvery int
	// persist aggregates durability counters for /stats.
	persist persistStats
	// demoting tracks sessions between their removal from the table by
	// Sweep and the completion of their demotion snapshot, so a DELETE
	// landing in that window can still fence them (id → *liveSession).
	demoting sync.Map
	// cluster is non-nil when EnableCluster made this node part of a
	// multi-node deployment (see cluster.go); nil keeps every
	// single-node path untouched.
	cluster *clusterState
	// now is the injectable clock (cfg.Now or time.Now).
	now func() time.Time
}

// persistStats counts durable-store activity since process start.
type persistStats struct {
	events    atomic.Int64 // WAL events appended
	snapshots atomic.Int64 // snapshots written
	errors    atomic.Int64 // failed persistence operations
	// lastSnapshot is the unix-nano time of the most recent snapshot
	// write, 0 when none happened yet.
	lastSnapshot atomic.Int64
	// restoreNS is how long the startup Restore took, 0 when the
	// process did not restore (fresh directory or mem store).
	restoreNS atomic.Int64
}

// liveSession is one inference session: a jim.Session plus the locks
// and lifecycle bookkeeping the service needs. mu guards the mutable
// inference state: answers and appends go through the write lock; pure
// reads (summaries, result, export) share the read lock. Proposal
// paths (Propose/TopK) mutate strategy caches and the skip set even on
// read paths, so they get their own innermost mutex, letting /next and
// /topk still run under the read lock concurrently with /result. Lock
// order: mu before pickMu.
type liveSession struct {
	mu         sync.RWMutex
	sess       *jim.Session
	createdAt  time.Time
	lastAccess atomic.Int64 // unix nanos; maintained by touch

	pickMu sync.Mutex

	// Durability bookkeeping (meaningful only with a durable store).
	// seed is the strategy seed from creation, recorded in snapshots so
	// a recovered randomized session draws identically.
	seed int64
	// walEvents counts events logged since the last snapshot; the
	// snapshot policy (size and age) keys off it.
	walEvents atomic.Int64
	// snapInFlight limits the session to one asynchronous size-policy
	// snapshot at a time.
	snapInFlight atomic.Bool
	// lastSnapshot is the unix-nano time of this session's last
	// snapshot.
	lastSnapshot atomic.Int64
	// deleted marks an explicitly deleted session (guarded by mu). It
	// fences late persistence: a request that resolved the session
	// before DELETE removed it must not re-create on-disk state the
	// delete just compacted away.
	deleted bool
	// cols is the schema's column positions sorted by name, the order
	// a proposed tuple's values are encoded in (httpcodec.go); the
	// schema never changes, so it is computed once.
	cols []int
	// replSeq numbers this session's replication stream (cluster mode):
	// every shipped event carries replSeq+1, every shipped snapshot the
	// current value, and the follower dedups resync replays against it.
	// It is a separate numbering space from the durable store's own
	// sequence, which the store assigns internally.
	replSeq atomic.Uint64
}

// newLiveSession wraps a session with the service's bookkeeping.
func newLiveSession(sess *jim.Session, createdAt time.Time, seed int64) *liveSession {
	return &liveSession{sess: sess, createdAt: createdAt, seed: seed, cols: sortedColumns(sess.Relation().Schema())}
}

// New returns an empty server with demo defaults (no cap, no TTL, no
// durability).
func New() *Server { return NewWith(Config{}) }

// NewWith returns an empty server with the given lifecycle config.
// With a durable store configured, call Restore next to reload
// persisted sessions before serving traffic.
func NewWith(cfg Config) *Server {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	return &Server{
		cfg:           cfg,
		sessions:      newTable(),
		metrics:       newMetrics(now()),
		durable:       cfg.Store.Name() != "mem",
		snapshotEvery: cfg.SnapshotEvery,
		now:           now,
	}
}

// Handler returns the HTTP API: every routes() entry under /v1, plus
// GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.method+" /"+APIVersion+rt.path, rt.handler)
	}
	// The liveness/role probe lives outside the versioned API on
	// purpose: load balancers and failover detectors probe a fixed,
	// unversioned path.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(mux)
}

// route is one entry of the wire contract: a versioned endpoint.
type route struct {
	method string
	// path is the route pattern without the version prefix, e.g.
	// "/sessions/{id}/next".
	path    string
	handler http.HandlerFunc
}

// routes is the single registration table Handler builds the mux from
// and Routes exposes — the documentation test in docs_test.go holds
// API.md to exactly this list, so the reference cannot drift from the
// code.
func (s *Server) routes() []route {
	return []route{
		{"POST", "/sessions", s.handleCreate},
		{"GET", "/sessions", s.handleList},
		{"POST", "/sessions/import", s.handleImport},
		{"GET", "/stats", s.handleStats},
		{"GET", "/sessions/{id}", s.readSession(s.handleSummary)},
		{"DELETE", "/sessions/{id}", s.handleDelete},
		{"GET", "/sessions/{id}/next", s.readSession(s.handleNext)},
		{"GET", "/sessions/{id}/topk", s.readSession(s.handleTopK)},
		{"POST", "/sessions/{id}/label", s.writeSession(s.handleLabel)},
		{"POST", "/sessions/{id}/step", s.writeSession(s.handleStep)},
		{"POST", "/sessions/{id}/tuples", s.handleAppend},
		{"GET", "/sessions/{id}/result", s.readSession(s.handleResult)},
		{"GET", "/sessions/{id}/export", s.readSession(s.handleExport)},
		{"GET", "/strategies", s.handleStrategies},
		{"GET", "/cluster", s.handleCluster},
		{"GET", "/cluster/probe", s.handleClusterProbe},
		{"POST", "/cluster/promote", s.handlePromote},
		{"POST", "/cluster/rejoin", s.handleRejoin},
		{"POST", "/cluster/rebalance", s.handleRebalance},
		{"POST", "/cluster/drain", s.handleDrain},
	}
}

// Routes returns every versioned endpoint as "METHOD /v1/path", sorted
// — the machine-readable wire contract, used by the docs-consistency
// test.
func (s *Server) Routes() []string {
	var out []string
	for _, rt := range s.routes() {
		out = append(out, rt.method+" /"+APIVersion+rt.path)
	}
	sort.Strings(out)
	return out
}

// limitBody applies Config.MaxBodyBytes to a request body. The
// returned reader fails with *http.MaxBytesError once the cap is hit;
// bodyError maps that onto 413.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	if s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
}

// decodeBody reads the capped request body whole and decodes it with
// json.Unmarshal, so a body holding anything after its one JSON value
// is an error rather than silently truncated.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	s.limitBody(w, r)
	b, err := io.ReadAll(r.Body)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// bodyError writes the right envelope for a request-body read failure:
// body_too_large (413) when the cap was exceeded, bad_input (400) with
// the error otherwise. It is the single classification site for
// body-limit handling.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, jim.CodeBodyTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeError(w, jim.CodeBadInput, "%v", err)
}

type createRequest struct {
	CSV      string `json:"csv"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
}

type sessionSummary struct {
	ID        string    `json:"id"`
	Strategy  string    `json:"strategy"`
	CreatedAt time.Time `json:"created_at"`
	Tuples    int       `json:"tuples"`
	// BaseTuples is the instance size at creation; AppendedTuples
	// counts arrivals streamed in afterwards (Tuples = base + appended).
	BaseTuples     int      `json:"base_tuples"`
	AppendedTuples int      `json:"appended_tuples"`
	Attributes     []string `json:"attributes"`
	Labels         int      `json:"labels"`
	Implied        int      `json:"implied"`
	Informative    int      `json:"informative"`
	Done           bool     `json:"done"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		bodyError(w, err)
		return
	}
	_, summary, err := s.create(req.CSV, req.Strategy, req.Seed)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, summary)
}

// handleImport restores a session from an exported file. Session
// files carry exact tagged values rather than a CSV header, so an
// imported session has no creation typing: arrivals appended to it
// parse with per-cell inference, pinned (like every session) so an
// append body's own header annotations are ignored.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	st, meta, err := session.Load(r.Body)
	if err != nil {
		bodyError(w, err)
		return
	}
	sess, err := jim.ResumeSession(st, sessionOptions(meta.Strategy, 0, nil)...)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	_, summary, err := s.register(newLiveSession(sess, s.now(), 0))
	if err != nil {
		writeTypedError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, summary)
}

// listResponse is one page of session summaries, ordered by id, plus
// the durability block operators poll: which backend is holding the
// sessions, how many of the live ones were replayed from it at
// startup, and how stale the newest snapshot is.
type listResponse struct {
	Sessions []sessionSummary `json:"sessions"`
	Total    int              `json:"total"`
	Limit    int              `json:"limit"`
	Offset   int              `json:"offset"`
	Store    storeStats       `json:"store"`
}

// handleList serves a stable page of session summaries: sessions are
// ordered by id, so pages do not shuffle between requests, and the
// page size is capped so a table of a million sessions cannot be
// serialized in one response.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", DefaultListLimit, 1, MaxListLimit)
	if err != nil {
		writeError(w, jim.CodeBadInput, "%v", err)
		return
	}
	offset, err := queryInt(r, "offset", 0, 0, int(^uint(0)>>1))
	if err != nil {
		writeError(w, jim.CodeBadInput, "%v", err)
		return
	}
	type entry struct {
		id string
		ls *liveSession
	}
	var all []entry
	s.sessions.forEach(func(id string, ls *liveSession) {
		all = append(all, entry{id, ls})
	})
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	resp := listResponse{
		Sessions: []sessionSummary{},
		Total:    len(all),
		Limit:    limit,
		Offset:   offset,
		Store:    s.storeStats(),
	}
	for i := offset; i < len(all) && i < offset+limit; i++ {
		e := all[i]
		e.ls.mu.RLock()
		resp.Sessions = append(resp.Sessions, summarize(e.id, e.ls))
		e.ls.mu.RUnlock()
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryInt parses an optional integer query parameter with bounds.
// Values above max clamp for limit-style knobs; below min is an error.
func queryInt(r *http.Request, name string, def, min, max int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	if v < min {
		return 0, fmt.Errorf("%s must be >= %d, got %d", name, min, v)
	}
	if v > max {
		v = max
	}
	return v, nil
}

// strategyInfo describes one entry of GET /v1/strategies.
type strategyInfo struct {
	Name string `json:"name"`
	// Heuristic marks the polynomial-time strategies; the one
	// non-heuristic entry (optimal) is exponential and only usable on
	// tiny instances.
	Heuristic bool `json:"heuristic"`
}

type strategiesResponse struct {
	Strategies []strategyInfo `json:"strategies"`
	Default    string         `json:"default"`
}

// handleStrategies serves the strategy discovery endpoint, so clients
// can populate pickers without hardcoding the registry.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	heuristic := make(map[string]bool)
	for _, n := range strategy.HeuristicNames() {
		heuristic[n] = true
	}
	resp := strategiesResponse{Default: jim.DefaultStrategy}
	for _, n := range strategy.Names() {
		resp.Strategies = append(resp.Strategies, strategyInfo{Name: n, Heuristic: heuristic[n]})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if id := r.PathValue("id"); !s.ownsID(id) {
		s.routeAway(w, r, id)
		return
	}
	if err := s.deleteSession(r.PathValue("id")); err != nil {
		writeTypedError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

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

// summarize builds a summary. Caller holds ls.mu (either mode).
func summarize(id string, ls *liveSession) sessionSummary {
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

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request, id string, ls *liveSession) {
	writeJSON(w, http.StatusOK, summarize(id, ls))
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
	hb.send(w, &enc)
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
	hb.send(w, &enc)
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
	hb.send(w, &enc)
}

// appendRequest carries arrival tuples in one of two encodings:
// CSV with a header that must match the session schema exactly, or
// raw string rows parsed cell-by-cell (values.Parse inference, same
// as untyped CSV columns). Exactly one of the two must be set.
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
	var req appendRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		bodyError(w, err)
		return
	}
	var (
		tuples []jim.Tuple
		err    error
	)
	switch {
	case req.CSV != "" && req.Rows != nil:
		writeError(w, jim.CodeBadInput, "pass csv or rows, not both")
		return
	case req.CSV != "":
		tuples, err = ls.sess.ParseCSV(req.CSV)
	case req.Rows != nil:
		tuples, err = ls.sess.ParseRows(req.Rows)
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
	newly, err := s.applyAppend(id, ls, tuples)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	p := ls.sess.Progress()
	hb := getHTTPBuf()
	defer hb.release()
	enc := hb.encoder()
	enc.appendReply(len(tuples), newly, p, ls.sess.Done())
	hb.send(w, &enc)
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

// wireError is the structured error envelope of the versioned API:
// {"error":{"code":"...","message":"..."}}. Codes come from the public
// jim taxonomy; the HTTP status is derived from the code, so the two
// can never disagree.
type wireError struct {
	Code    jim.ErrorCode `json:"code"`
	Message string        `json:"message"`
}

type errorEnvelope struct {
	Error wireError `json:"error"`
}

// writeError writes an envelope for a code with a formatted message.
func writeError(w http.ResponseWriter, code jim.ErrorCode, format string, args ...any) {
	writeJSON(w, code.HTTPStatus(), errorEnvelope{Error: wireError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeTypedError maps an error from the jim layer onto the envelope.
// Errors outside the taxonomy become code "internal".
func writeTypedError(w http.ResponseWriter, err error) {
	if code := jim.CodeOf(err); code != "" {
		var je *jim.Error
		errors.As(err, &je)
		writeJSON(w, code.HTTPStatus(), errorEnvelope{Error: wireError{Code: code, Message: je.Message}})
		return
	}
	writeError(w, jim.CodeInternal, "%v", err)
}

// jsonBuf pairs a reusable encode buffer with a json.Encoder bound to
// it, so the per-response cost of the HTTP path is one pool round trip
// instead of a fresh encoder + growing buffer per call.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	b := &jsonBuf{}
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}}

// jsonBufMaxCap bounds what goes back into the pool: a rare huge
// response (a big list page) must not pin its buffer forever.
const jsonBufMaxCap = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := jsonBufPool.Get().(*jsonBuf)
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		// Unreachable for the server's own response types; keep the
		// envelope shape anyway rather than emitting a truncated body.
		jsonBufPool.Put(b)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":{\"code\":%q,\"message\":\"encoding response\"}}\n", jim.CodeInternal)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
	if b.buf.Cap() <= jsonBufMaxCap {
		jsonBufPool.Put(b)
	}
}
