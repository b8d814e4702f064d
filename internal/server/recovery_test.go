package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// diskConfig is the durable configuration the recovery tests run
// under: a tiny snapshot threshold so one dialogue exercises both the
// snapshot rewrite and the WAL-suffix replay paths.
func diskConfig(t *testing.T, dir string) (server.Config, *store.Disk) {
	t.Helper()
	ds, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return server.Config{Store: ds, SnapshotEvery: 3}, ds
}

// TestCrashRecoveryDifferential is the durability acceptance test: for
// every shipped strategy, a disk-backed HTTP session is driven through
// a scripted dialogue (labels, a skip left active, streamed-in arrival
// batches), killed without any graceful shutdown, and reopened from
// the same data directory. The recovered session must match an
// uninterrupted in-process core.Session tuple for tuple: same
// progress, same running result, and the same proposals from the crash
// point to convergence.
func TestCrashRecoveryDifferential(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			var (
				initial *relation.Relation
				batches [][]relation.Tuple
				goal    partition.P
			)
			if name == "optimal" {
				// Exponential strategy: tiny fixed instance, no streaming.
				initial, goal = workload.Travel(), workload.TravelQ2()
			} else {
				stream, err := workload.NewStream("synthetic", workload.StreamConfig{Batches: 2, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				initial, batches, goal = stream.Initial, stream.Batches, stream.Goal
			}

			// The uninterrupted reference: a core.Session that will see
			// every operation exactly once, with no restart.
			refRel := relation.New(initial.Schema())
			initial.Each(func(i int, tu relation.Tuple) { refRel.MustAppend(tu) })
			refSt, err := core.NewState(refRel)
			if err != nil {
				t.Fatal(err)
			}
			picker, err := strategy.ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref := core.NewSession(refSt, picker)
			ref.RedeferLimit = -1

			dir := t.TempDir()
			cfg, ds := diskConfig(t, dir)
			srv := server.NewWith(cfg)
			ts := httptest.NewServer(srv.Handler())

			var csv bytes.Buffer
			if err := relation.WriteCSV(&csv, initial); err != nil {
				t.Fatal(err)
			}
			var s summary
			doJSON(t, "POST", ts.URL+"/v1/sessions",
				map[string]any{"csv": csv.String(), "strategy": name, "seed": 7},
				http.StatusCreated, &s)

			label := func(i int) string {
				if core.Selects(goal, refSt.Relation().Tuple(i)) {
					return "+"
				}
				return "-"
			}

			// drive advances both sides until crashAt questions have been
			// asked (negative: until convergence), keeping them in
			// lockstep and returning whether the dialogue converged.
			nextBatch := 0
			questions := 0
			drive := func(base string, crashAt int) bool {
				for step := 0; ; step++ {
					if step > 6*refSt.Relation().Len() {
						t.Fatal("protocol did not converge")
					}
					if crashAt >= 0 && questions >= crashAt {
						return false
					}
					if nextBatch < len(batches) && step%4 == 3 {
						batch := batches[nextBatch]
						rows := make([][]string, len(batch))
						for bi, tu := range batch {
							row := make([]string, len(tu))
							for c, v := range tu {
								row[c] = relation.EncodeCell(v)
							}
							rows[bi] = row
						}
						doJSON(t, "POST", base+"/tuples", map[string]any{"rows": rows}, http.StatusOK, nil)
						b, err := relation.BatchOf(refSt.Relation().Schema().Len(), batch)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := ref.Append(b); err != nil {
							t.Fatal(err)
						}
						nextBatch++
						continue
					}
					var n next
					doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
					refIdx, refOK := ref.Propose()
					if n.Done != !refOK {
						t.Fatalf("step %d: done=%v over HTTP, propose ok=%v in-process", step, n.Done, refOK)
					}
					if n.Done {
						if nextBatch < len(batches) {
							continue
						}
						return true
					}
					if n.Tuple.Index != refIdx {
						t.Fatalf("step %d (q%d): HTTP proposed tuple %d, reference %d",
							step, questions, n.Tuple.Index, refIdx)
					}
					if questions%5 == 2 {
						doJSON(t, "POST", base+"/label",
							map[string]any{"index": n.Tuple.Index, "label": "skip"}, http.StatusOK, nil)
						if err := ref.Skip(refIdx); err != nil {
							t.Fatal(err)
						}
					} else {
						doJSON(t, "POST", base+"/label",
							map[string]any{"index": n.Tuple.Index, "label": label(n.Tuple.Index)},
							http.StatusOK, nil)
						if _, err := ref.Answer(refIdx, parseLabel(label(refIdx))); err != nil {
							t.Fatal(err)
						}
					}
					questions++
				}
			}

			// Phase 1: crash right after the skip at question 2 has been
			// recorded — the skip set is non-empty at the crash point, so
			// recovery must restore proposal routing, not just labels.
			converged := drive(ts.URL+"/v1/sessions/"+s.ID, 3)

			// SIGKILL-style: no SnapshotAll, no janitor — just stop
			// serving and drop the process state. Close flushes nothing
			// beyond what every acknowledged request already persisted.
			ts.Close()
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}

			cfg2, ds2 := diskConfig(t, dir)
			srv2 := server.NewWith(cfg2)
			restored, err := srv2.Restore()
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if restored != 1 {
				t.Fatalf("restored %d sessions, want 1", restored)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			defer ds2.Close()
			base := ts2.URL + "/v1/sessions/" + s.ID

			// The recovered session must stand exactly where the
			// uninterrupted one stands: same progress counters, same
			// running result.
			var sum summary
			doJSON(t, "GET", base, nil, http.StatusOK, &sum)
			p := ref.Progress()
			if sum.Labels != p.Explicit || sum.Implied != p.Implied ||
				sum.Informative != p.Informative || sum.Tuples != p.Total || sum.Done != ref.Done() {
				t.Fatalf("recovered summary %+v, reference progress %+v done=%v", sum, p, ref.Done())
			}
			if sum.Strategy != name {
				t.Fatalf("recovered strategy %q, want %q", sum.Strategy, name)
			}
			var res struct {
				Done      bool   `json:"done"`
				Predicate string `json:"predicate"`
			}
			doJSON(t, "GET", base+"/result", nil, http.StatusOK, &res)
			if res.Predicate != ref.Result().String() {
				t.Fatalf("recovered M_P = %s, reference %s", res.Predicate, ref.Result().String())
			}

			// Phase 2: finish the dialogue against the recovered server,
			// still in lockstep with the never-interrupted reference —
			// every proposal from the crash point to convergence must
			// match.
			if !converged {
				drive(base, -1)
			}
			if !ref.Done() {
				t.Fatal("reference session did not converge with the recovered session")
			}
			doJSON(t, "GET", base+"/result", nil, http.StatusOK, &res)
			if !res.Done {
				t.Error("recovered session not done")
			}
			if res.Predicate != ref.Result().String() {
				t.Errorf("final M_P over recovered HTTP = %s, reference %s", res.Predicate, ref.Result().String())
			}
		})
	}
}

// TestEvictionDemotesToDiskWithoutDoubleCounting pins two contracts:
// an idle-TTL eviction snapshots the session before dropping it from
// RAM (so it survives the next restart), and neither eviction nor the
// startup replay touches the label/ingest counters — a restart must
// not inflate throughput metrics with replayed traffic.
func TestEvictionDemotesToDiskWithoutDoubleCounting(t *testing.T) {
	dir := t.TempDir()
	ds, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now()
	srv := server.NewWith(server.Config{
		Store:   ds,
		IdleTTL: time.Minute,
		Now:     func() time.Time { return clock },
	})
	ts := httptest.NewServer(srv.Handler())

	var s summary
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"csv": travelCSV, "strategy": "lookahead-maxmin"},
		http.StatusCreated, &s)
	base := ts.URL + "/v1/sessions/" + s.ID
	// One label and one streamed-in batch: real traffic, counted once.
	var n next
	doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
	doJSON(t, "POST", base+"/label",
		map[string]any{"index": n.Tuple.Index, "label": "+"}, http.StatusOK, nil)
	doJSON(t, "POST", base+"/tuples",
		map[string]any{"rows": [][]string{{"Lille", "Paris", "AF", "Paris", "None"}}},
		http.StatusOK, nil)

	type stats struct {
		Sessions struct {
			Active   int64 `json:"active"`
			Evicted  int64 `json:"evicted"`
			Restored int64 `json:"restored"`
		} `json:"sessions"`
		Labels struct {
			Total int64 `json:"total"`
		} `json:"labels"`
		Ingest struct {
			Appends        int64 `json:"appends"`
			TuplesAppended int64 `json:"tuples_appended"`
		} `json:"ingest"`
		Store struct {
			Backend                string  `json:"backend"`
			RestoredSessions       int64   `json:"restored_sessions"`
			EventsLogged           int64   `json:"events_logged"`
			Snapshots              int64   `json:"snapshots"`
			LastSnapshotAgeSeconds float64 `json:"last_snapshot_age_seconds"`
		} `json:"store"`
	}
	var st stats
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Ingest.Appends != 1 || st.Ingest.TuplesAppended != 1 || st.Labels.Total != 1 {
		t.Fatalf("pre-eviction counters: %+v", st)
	}
	if st.Store.Backend != "disk" || st.Store.EventsLogged != 2 {
		t.Fatalf("pre-eviction store stats: %+v", st.Store)
	}

	// Idle the session out. Eviction snapshots, then drops from RAM —
	// and the counters must not move (the snapshot is maintenance, not
	// traffic).
	clock = clock.Add(2 * time.Minute)
	if n := srv.Sweep(); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Sessions.Active != 0 || st.Sessions.Evicted != 1 {
		t.Fatalf("post-eviction sessions: %+v", st.Sessions)
	}
	if st.Ingest.Appends != 1 || st.Ingest.TuplesAppended != 1 || st.Labels.Total != 1 {
		t.Fatalf("eviction moved traffic counters: %+v", st)
	}
	wantError(t, "GET", base, nil, http.StatusNotFound, "not_found")
	ts.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the evicted session comes back from its snapshot, and
	// the replayed label/append appear in no traffic counter.
	ds2, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	srv2 := server.NewWith(server.Config{Store: ds2})
	restored, err := srv2.Restore()
	if err != nil || restored != 1 {
		t.Fatalf("restore = %d, %v; want 1 session", restored, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	doJSON(t, "GET", ts2.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Sessions.Active != 1 || st.Sessions.Restored != 1 || st.Store.RestoredSessions != 1 {
		t.Fatalf("post-restore sessions: %+v store: %+v", st.Sessions, st.Store)
	}
	if st.Labels.Total != 0 || st.Ingest.Appends != 0 || st.Ingest.TuplesAppended != 0 {
		t.Fatalf("startup replay double-counted traffic: %+v", st)
	}
	// The session is live again with its labeled work intact.
	var sum summary
	doJSON(t, "GET", ts2.URL+"/v1/sessions/"+s.ID, nil, http.StatusOK, &sum)
	if sum.Labels != 1 || sum.Tuples != 13 {
		t.Fatalf("restored summary: %+v", sum)
	}
	// The list endpoint carries the same durability block.
	var list struct {
		listBody
		Store struct {
			Backend          string `json:"backend"`
			RestoredSessions int64  `json:"restored_sessions"`
		} `json:"store"`
	}
	doJSON(t, "GET", ts2.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if list.Store.Backend != "disk" || list.Store.RestoredSessions != 1 {
		t.Fatalf("list store block: %+v", list.Store)
	}
}

// TestDeleteDiscardsDurableState: an explicit DELETE must remove the
// on-disk copy too, or the session would resurrect on restart.
func TestDeleteDiscardsDurableState(t *testing.T) {
	dir := t.TempDir()
	cfg, ds := diskConfig(t, dir)
	srv := server.NewWith(cfg)
	ts := httptest.NewServer(srv.Handler())

	var keep, drop summary
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &keep)
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &drop)
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+drop.ID, nil, http.StatusNoContent, nil)
	ts.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2, ds2 := diskConfig(t, dir)
	defer ds2.Close()
	srv2 := server.NewWith(cfg2)
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want only the kept one", restored)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	doJSON(t, "GET", ts2.URL+"/v1/sessions/"+keep.ID, nil, http.StatusOK, nil)
	wantError(t, "GET", ts2.URL+"/v1/sessions/"+drop.ID, nil, http.StatusNotFound, "not_found")

	// New ids must not collide with restored ones: the id counter
	// resumes past the highest surviving session. (Ids of deleted
	// sessions may be reused after a restart, like every id is after a
	// memstore restart — uniqueness is guaranteed among live and
	// persisted sessions, which is what the table requires.)
	var fresh summary
	doJSON(t, "POST", ts2.URL+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &fresh)
	if fresh.ID == keep.ID {
		t.Fatalf("fresh session reused live id %s", fresh.ID)
	}
}

// TestSnapshotAllCompactsWALs: the graceful-shutdown path folds every
// dirty session into a snapshot so the next start replays no events.
func TestSnapshotAllCompactsWALs(t *testing.T) {
	dir := t.TempDir()
	cfg, ds := diskConfig(t, dir)
	srv := server.NewWith(cfg)
	ts := httptest.NewServer(srv.Handler())

	var s summary
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &s)
	var n next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &n)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
		map[string]any{"index": n.Tuple.Index, "label": "+"}, http.StatusOK, nil)
	ts.Close()
	if err := srv.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	saved, err := ds2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 || len(saved[0].Events) != 0 {
		t.Fatalf("after SnapshotAll: %d sessions, %d residual events", len(saved), len(saved[0].Events))
	}
	if saved[0].Snapshot == nil || len(saved[0].Snapshot.Session) == 0 {
		t.Fatal("snapshot missing after SnapshotAll")
	}
}

// TestDeleteOfDemotedSessionPurgesDisk: DELETE must mean gone even for
// a session the TTL sweeper already demoted to disk — otherwise the
// client gets a 404 "not found" while the data quietly resurrects on
// the next restart.
func TestDeleteOfDemotedSessionPurgesDisk(t *testing.T) {
	dir := t.TempDir()
	ds, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now()
	srv := server.NewWith(server.Config{
		Store:   ds,
		IdleTTL: time.Minute,
		Now:     func() time.Time { return clock },
	})
	ts := httptest.NewServer(srv.Handler())
	var s summary
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &s)
	clock = clock.Add(2 * time.Minute)
	if n := srv.Sweep(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	// The session is demoted: requests 404, but the durable copy lives.
	wantError(t, "DELETE", ts.URL+"/v1/sessions/"+s.ID, nil, http.StatusNotFound, "not_found")
	ts.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	srv2 := server.NewWith(server.Config{Store: ds2})
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("deleted-while-demoted session resurrected: restored %d", restored)
	}
}

// TestSnapshotAged: the janitor's age policy folds long-growing WALs
// into fresh snapshots without touching sessions whose log is empty.
func TestSnapshotAged(t *testing.T) {
	dir := t.TempDir()
	ds, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	clock := time.Now()
	srv := server.NewWith(server.Config{
		Store:          ds,
		SnapshotMaxAge: time.Minute,
		Now:            func() time.Time { return clock },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var dirty, clean summary
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &dirty)
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{"csv": travelCSV}, http.StatusCreated, &clean)
	var n next
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+dirty.ID+"/next", nil, http.StatusOK, &n)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+dirty.ID+"/label",
		map[string]any{"index": n.Tuple.Index, "label": "+"}, http.StatusOK, nil)

	if got := srv.SnapshotAged(); got != 0 {
		t.Fatalf("fresh WAL snapshotted early: %d", got)
	}
	clock = clock.Add(2 * time.Minute)
	if got := srv.SnapshotAged(); got != 1 {
		t.Fatalf("SnapshotAged = %d, want 1 (only the dirty session)", got)
	}
	saved, err := ds.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range saved {
		if len(sv.Events) != 0 {
			t.Errorf("%s still has %d WAL events after age snapshot", sv.ID, len(sv.Events))
		}
	}
}

// TestRecoveryPreservesSkipClearRounds pins the one mutation a read
// path makes: when every informative class is skipped, GET /next
// clears the set to start a re-offer round. That clear must reach the
// WAL — otherwise replayed skips pile onto a set the live session had
// emptied, and the recovered server proposes different tuples than the
// uninterrupted run.
func TestRecoveryPreservesSkipClearRounds(t *testing.T) {
	initial, goal := workload.Travel(), workload.TravelQ2()
	refRel := relation.New(initial.Schema())
	initial.Each(func(i int, tu relation.Tuple) { refRel.MustAppend(tu) })
	refSt, err := core.NewState(refRel)
	if err != nil {
		t.Fatal(err)
	}
	picker, err := strategy.ByName("lookahead-maxmin", 7)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewSession(refSt, picker)
	ref.RedeferLimit = -1

	dir := t.TempDir()
	cfg, ds := diskConfig(t, dir)
	srv := server.NewWith(cfg)
	ts := httptest.NewServer(srv.Handler())
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, initial); err != nil {
		t.Fatal(err)
	}
	var s summary
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"csv": csv.String(), "strategy": "lookahead-maxmin", "seed": 7},
		http.StatusCreated, &s)
	base := ts.URL + "/v1/sessions/" + s.ID

	// Skip every proposal until the re-offer round has happened and one
	// more skip landed after it: the live skip set is now a strict
	// subset of the replayed-without-clears one.
	propose := func(base string) (int, bool) {
		var n next
		doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
		refIdx, refOK := ref.Propose()
		if n.Done != !refOK {
			t.Fatalf("done=%v over HTTP, propose ok=%v in-process", n.Done, refOK)
		}
		if n.Done {
			return 0, false
		}
		if n.Tuple.Index != refIdx {
			t.Fatalf("HTTP proposed tuple %d, reference %d", n.Tuple.Index, refIdx)
		}
		return refIdx, true
	}
	for step := 0; ; step++ {
		if step > 4*refRel.Len() {
			t.Fatal("re-offer round never happened")
		}
		i, ok := propose(base)
		if !ok {
			t.Fatal("converged before exercising a clear")
		}
		doJSON(t, "POST", base+"/label", map[string]any{"index": i, "label": "skip"}, http.StatusOK, nil)
		if err := ref.Skip(i); err != nil {
			t.Fatal(err)
		}
		if ref.SkipClears() >= 1 {
			break // this skip landed after a clear — the interesting state
		}
	}

	// SIGKILL-style stop, recover, and the proposals must still agree.
	ts.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	cfg2, ds2 := diskConfig(t, dir)
	defer ds2.Close()
	srv2 := server.NewWith(cfg2)
	if n, err := srv2.Restore(); err != nil || n != 1 {
		t.Fatalf("restore = %d, %v", n, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	base = ts2.URL + "/v1/sessions/" + s.ID
	// Finish the dialogue with oracle labels, lockstep to convergence.
	for step := 0; ; step++ {
		if step > 4*refRel.Len() {
			t.Fatal("no convergence after recovery")
		}
		i, ok := propose(base)
		if !ok {
			break
		}
		label := "-"
		if core.Selects(goal, refRel.Tuple(i)) {
			label = "+"
		}
		doJSON(t, "POST", base+"/label", map[string]any{"index": i, "label": label}, http.StatusOK, nil)
		if _, err := ref.Answer(i, parseLabel(label)); err != nil {
			t.Fatal(err)
		}
	}
	if !ref.Done() {
		t.Fatal("reference did not converge with the recovered session")
	}
}

// TestRestoreManySessionsDifferential is the fleet-sized recovery
// test: a dozen disk-backed sessions over every instance family and
// heuristic strategy are each labeled part way over HTTP, the server
// is killed without a graceful shutdown, and a fresh server restores
// the fleet from the same data directory on its worker pool. Every
// session must come back, standing exactly where a never-interrupted
// control server that saw the same requests stands: same progress,
// same running result, same next proposal.
func TestRestoreManySessionsDifferential(t *testing.T) {
	const n = 12
	families := workload.InstanceNames()
	strategies := strategy.Names()
	strategies = strategies[:len(strategies)-1] // all but the exponential optimal

	dir := t.TempDir()
	cfg, ds := diskConfig(t, dir)
	ts := httptest.NewServer(server.NewWith(cfg).Handler())
	control := newTestServer(t)

	ids := make([]string, n)
	for i := range ids {
		rel, goal, err := workload.Instance(families[i%len(families)], workload.InstanceConfig{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := relation.WriteCSV(&csv, rel); err != nil {
			t.Fatal(err)
		}
		create := map[string]any{"csv": csv.String(), "strategy": strategies[i%len(strategies)], "seed": i}
		var s, c summary
		doJSON(t, "POST", ts.URL+"/v1/sessions", create, http.StatusCreated, &s)
		doJSON(t, "POST", control.URL+"/v1/sessions", create, http.StatusCreated, &c)
		if s.ID != c.ID {
			t.Fatalf("session %d: id %s on disk, %s on the control", i, s.ID, c.ID)
		}
		ids[i] = s.ID
		// 1–4 answers each, the third a skip, so the fleet crashes with
		// snapshots, WAL suffixes and active skips all in play.
		for q := 0; q <= i%4; q++ {
			var nd, nc next
			doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &nd)
			doJSON(t, "GET", control.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &nc)
			if nd.Done || nc.Done || nd.Tuple.Index != nc.Tuple.Index {
				t.Fatalf("session %s q%d: proposal %+v on disk, %+v on the control", s.ID, q, nd.Tuple, nc.Tuple)
			}
			label := "-"
			switch {
			case q == 2:
				label = "skip"
			case core.Selects(goal, rel.Tuple(nd.Tuple.Index)):
				label = "+"
			}
			answer := map[string]any{"index": nd.Tuple.Index, "label": label}
			doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label", answer, http.StatusOK, nil)
			doJSON(t, "POST", control.URL+"/v1/sessions/"+s.ID+"/label", answer, http.StatusOK, nil)
		}
	}

	// SIGKILL-style: no SnapshotAll, just stop serving.
	ts.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	cfg2, ds2 := diskConfig(t, dir)
	defer ds2.Close()
	srv2 := server.NewWith(cfg2)
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored != n {
		t.Fatalf("restored %d sessions, want %d", restored, n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	for _, id := range ids {
		var sum, want summary
		doJSON(t, "GET", ts2.URL+"/v1/sessions/"+id, nil, http.StatusOK, &sum)
		doJSON(t, "GET", control.URL+"/v1/sessions/"+id, nil, http.StatusOK, &want)
		if sum.Strategy != want.Strategy || sum.Tuples != want.Tuples || sum.Labels != want.Labels ||
			sum.Implied != want.Implied || sum.Informative != want.Informative || sum.Done != want.Done {
			t.Errorf("session %s: restored summary %+v, control %+v", id, sum, want)
		}
		var res, wantRes result
		doJSON(t, "GET", ts2.URL+"/v1/sessions/"+id+"/result", nil, http.StatusOK, &res)
		doJSON(t, "GET", control.URL+"/v1/sessions/"+id+"/result", nil, http.StatusOK, &wantRes)
		if res != wantRes {
			t.Errorf("session %s: restored result %+v, control %+v", id, res, wantRes)
		}
		var nr, nc next
		doJSON(t, "GET", ts2.URL+"/v1/sessions/"+id+"/next", nil, http.StatusOK, &nr)
		doJSON(t, "GET", control.URL+"/v1/sessions/"+id+"/next", nil, http.StatusOK, &nc)
		if nr.Done != nc.Done || (!nr.Done && nr.Tuple.Index != nc.Tuple.Index) {
			t.Errorf("session %s: restored next %+v, control %+v", id, nr.Tuple, nc.Tuple)
		}
	}
}
