package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reservoirSize is the per-endpoint sample window: a power of two so
// the ring index is a mask, large enough that p99 over the window
// rests on ~10 samples.
const reservoirSize = 1024

// latencyReservoir keeps the last reservoirSize request durations in a
// fixed ring of atomics. Recording is two atomic ops — an index fetch
// and a slot store — with no lock, no allocation, and no sharing with
// the read side, so sampling can never perturb the benchmark being
// measured. Quantiles are computed exactly (not bucket-rounded like
// the log histogram this replaced) by copying and sorting the window
// at /stats read time, where an allocation is harmless.
type latencyReservoir struct {
	n     atomic.Int64 // total observations ever
	sumNS atomic.Int64
	ring  [reservoirSize]atomic.Int64 // nanoseconds
}

func (r *latencyReservoir) observe(d time.Duration) {
	if d <= 0 {
		// Keep zero as the "never written" sentinel and quantiles
		// positive even under a frozen test clock.
		d = 1
	}
	i := r.n.Add(1) - 1
	r.ring[i&(reservoirSize-1)].Store(int64(d))
	r.sumNS.Add(int64(d))
}

// window copies the filled portion of the ring, sorted ascending.
// Slots are read without synchronization against concurrent stores —
// a sample may be torn between two requests' values, which for a
// stats panel is noise, not corruption.
func (r *latencyReservoir) window() []int64 {
	n := r.n.Load()
	if n > reservoirSize {
		n = reservoirSize
	}
	out := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		if v := r.ring[i].Load(); v > 0 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileMS reads the p-th percentile (in milliseconds) from a sorted
// window, or 0 when empty.
func quantileMS(window []int64, p float64) float64 {
	if len(window) == 0 {
		return 0
	}
	rank := int(p*float64(len(window)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(window) {
		rank = len(window)
	}
	return float64(window[rank-1]) / 1e6
}

func (r *latencyReservoir) meanMS() float64 {
	total := r.n.Load()
	if total == 0 {
		return 0
	}
	return float64(r.sumNS.Load()) / float64(total) / 1e6
}

// endpointMetrics aggregates one route pattern (or wire op).
type endpointMetrics struct {
	count  atomic.Int64
	errors atomic.Int64 // responses with status >= 400
	res    latencyReservoir
}

// metrics is the server-wide instrumentation: per-endpoint latency
// plus label and ingestion throughput. Endpoint slots live in a
// sync.Map so the steady state (slot exists) is a lock-free load and
// everything after is atomics — no global serialization point on the
// request path.
type metrics struct {
	endpoints      sync.Map     // pattern string -> *endpointMetrics
	labels         atomic.Int64 // successful label applications
	appends        atomic.Int64 // successful append batches
	tuplesAppended atomic.Int64 // tuples streamed in via append
	startedAt      time.Time
}

func newMetrics(now time.Time) *metrics {
	return &metrics{startedAt: now}
}

func (m *metrics) endpoint(pattern string) *endpointMetrics {
	if em, ok := m.endpoints.Load(pattern); ok {
		return em.(*endpointMetrics)
	}
	em, _ := m.endpoints.LoadOrStore(pattern, &endpointMetrics{})
	return em.(*endpointMetrics)
}

// record is the single accounting entry point for both transports:
// the HTTP middleware calls it with the matched route pattern, the
// wire connection handler (via Server.RecordWireOp) with the op's
// "WIRE <op>" label.
func (m *metrics) record(pattern string, d time.Duration, isErr bool) {
	em := m.endpoint(pattern)
	em.count.Add(1)
	if isErr {
		em.errors.Add(1)
	}
	em.res.observe(d)
}

// statusRecorder captures the response status for error accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// recorderPool recycles statusRecorders: a handler never keeps its
// ResponseWriter past its return, so one recorder serves request after
// request instead of one allocation each.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps the mux, recording count, errors, and latency per
// matched route pattern (r.Pattern is set by ServeMux on match).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		next.ServeHTTP(rec, r)
		status := rec.status
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched"
		}
		s.metrics.record(pattern, s.now().Sub(start), status >= 400)
	})
}

type endpointStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

type statsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Sessions      sessionStats             `json:"sessions"`
	Labels        labelStats               `json:"labels"`
	Ingest        ingestStats              `json:"ingest"`
	Store         storeStats               `json:"store"`
	Endpoints     map[string]endpointStats `json:"endpoints"`
	EndpointOrder []string                 `json:"endpoint_order"`
}

type sessionStats struct {
	Active   int64 `json:"active"`
	Created  int64 `json:"created"`
	Restored int64 `json:"restored"`
	Deleted  int64 `json:"deleted"`
	Evicted  int64 `json:"evicted"`
	Rejected int64 `json:"rejected"`
	Max      int   `json:"max,omitempty"`
}

// storeStats is the durability block of /stats and GET /v1/sessions:
// which backend holds the sessions, how many live sessions were
// replayed from it at startup, how much WAL/snapshot traffic it has
// absorbed, and how stale the newest snapshot is.
type storeStats struct {
	Backend          string `json:"backend"`
	RestoredSessions int64  `json:"restored_sessions"`
	EventsLogged     int64  `json:"events_logged"`
	Snapshots        int64  `json:"snapshots"`
	PersistErrors    int64  `json:"persist_errors"`
	// WALFormat is the on-disk format new writes use ("v2"); absent
	// for backends without a durable format (mem).
	WALFormat string `json:"wal_format,omitempty"`
	// RestoreMS is how long the startup Restore took; 0 when this
	// process did not restore anything.
	RestoreMS float64 `json:"restore_ms"`
	// LastSnapshotAgeSeconds is the age of the most recent snapshot
	// write; -1 when no snapshot has been written this process.
	LastSnapshotAgeSeconds float64 `json:"last_snapshot_age_seconds"`
}

// formatter is the optional store side-interface reporting its
// on-disk format version (implemented by the disk backend).
type formatter interface{ Format() string }

// storeStats assembles the durability block.
func (s *Server) storeStats() storeStats {
	st := storeStats{
		Backend:                s.cfg.Store.Name(),
		RestoredSessions:       s.sessions.restored.Load(),
		EventsLogged:           s.persist.events.Load(),
		Snapshots:              s.persist.snapshots.Load(),
		PersistErrors:          s.persist.errors.Load(),
		RestoreMS:              float64(s.persist.restoreNS.Load()) / 1e6,
		LastSnapshotAgeSeconds: -1,
	}
	if f, ok := s.cfg.Store.(formatter); ok {
		st.WALFormat = f.Format()
	}
	if last := s.persist.lastSnapshot.Load(); last > 0 {
		st.LastSnapshotAgeSeconds = time.Duration(s.now().UnixNano() - last).Seconds()
	}
	return st
}

type labelStats struct {
	Total     int64   `json:"total"`
	PerSecond float64 `json:"per_second"`
}

// ingestStats reports streaming-ingestion throughput: how many append
// batches landed and how many tuples they carried.
type ingestStats struct {
	Appends        int64   `json:"appends"`
	TuplesAppended int64   `json:"tuples_appended"`
	PerSecond      float64 `json:"tuples_per_second"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	uptime := s.now().Sub(m.startedAt).Seconds()
	resp := statsResponse{
		UptimeSeconds: uptime,
		Sessions: sessionStats{
			Active:   s.sessions.active.Load(),
			Created:  s.sessions.created.Load(),
			Restored: s.sessions.restored.Load(),
			Deleted:  s.sessions.deleted.Load(),
			Evicted:  s.sessions.evicted.Load(),
			Rejected: s.sessions.rejected.Load(),
			Max:      s.cfg.MaxSessions,
		},
		Labels: labelStats{Total: m.labels.Load()},
		Ingest: ingestStats{
			Appends:        m.appends.Load(),
			TuplesAppended: m.tuplesAppended.Load(),
		},
		Store:     s.storeStats(),
		Endpoints: make(map[string]endpointStats),
	}
	if uptime > 0 {
		resp.Labels.PerSecond = float64(resp.Labels.Total) / uptime
		resp.Ingest.PerSecond = float64(resp.Ingest.TuplesAppended) / uptime
	}
	m.endpoints.Range(func(key, value any) bool {
		em := value.(*endpointMetrics)
		win := em.res.window()
		resp.Endpoints[key.(string)] = endpointStats{
			Count:  em.count.Load(),
			Errors: em.errors.Load(),
			MeanMS: em.res.meanMS(),
			P50MS:  quantileMS(win, 0.50),
			P95MS:  quantileMS(win, 0.95),
			P99MS:  quantileMS(win, 0.99),
		}
		return true
	})
	for pattern := range resp.Endpoints {
		resp.EndpointOrder = append(resp.EndpointOrder, pattern)
	}
	sort.Strings(resp.EndpointOrder)
	writeJSON(w, http.StatusOK, resp)
}
