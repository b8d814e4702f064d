package chaostest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// chaosSeeds is the committed seed set every schedule runs: the seed
// is the one random input of a schedule (it feeds the strategy seed on
// both sides of the differential). CHAOS_SEED replaces the set with
// one seed to replay a CI failure.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds := []int64{7, 1, 42}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seeds = []int64{v}
	}
	return seeds
}

// forEachSeed runs schedule once per chaos seed, each in its own
// subtest, and logs every seed.
func forEachSeed(t *testing.T, schedule func(t *testing.T, seed int64)) {
	t.Helper()
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("chaostest seed %d (replay with CHAOS_SEED=%d)", seed, seed)
			schedule(t, seed)
		})
	}
}

// lease is the fake-time failure-detector lease every schedule uses;
// pastLease advanced past it triggers detection on the next tick.
const (
	lease     = time.Second
	pastLease = lease + 100*time.Millisecond
)

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %s: %v", method, url, data, err)
		}
	}
}

type summary struct {
	ID          string `json:"id"`
	Strategy    string `json:"strategy"`
	Tuples      int    `json:"tuples"`
	Labels      int    `json:"labels"`
	Implied     int    `json:"implied"`
	Informative int    `json:"informative"`
	Done        bool   `json:"done"`
}

type next struct {
	Done  bool `json:"done"`
	Tuple *struct {
		Index int `json:"index"`
	} `json:"tuple"`
}

// clusterView is the subset of GET /v1/cluster the schedules assert.
type clusterView struct {
	Self      string             `json:"self"`
	Alive     []string           `json:"alive"`
	Failed    map[string]string  `json:"failed"`
	LeaseMS   float64            `json:"lease_ms"`
	Suspected map[string]float64 `json:"suspected"`
}

func view(t *testing.T, n *Node) clusterView {
	t.Helper()
	var v clusterView
	doJSON(t, "GET", n.Base()+"/cluster", nil, http.StatusOK, &v)
	return v
}

// quiesce runs the ?sync=1 replication barrier on a node: after it
// returns, the follower holds everything the node ever shipped.
func quiesce(t *testing.T, n *Node) {
	t.Helper()
	var h struct {
		Replication *struct {
			Synced *bool `json:"synced"`
			Ship   *struct {
				QueuedEvents int64 `json:"queued_events"`
			} `json:"ship"`
		} `json:"replication"`
	}
	doJSON(t, "GET", "http://"+n.httpAddr+"/healthz?sync=1", nil, http.StatusOK, &h)
	if h.Replication == nil || h.Replication.Synced == nil || !*h.Replication.Synced {
		t.Fatalf("node %s did not sync its replication stream", n.ID)
	}
	if q := h.Replication.Ship.QueuedEvents; q != 0 {
		t.Fatalf("node %s still has %d queued replication events after sync", n.ID, q)
	}
}

// chaosWorkload is one strategy's differential inputs.
type chaosWorkload struct {
	initial *relation.Relation
	batches [][]relation.Tuple
	goal    partition.P
	csv     string
}

func loadWorkload(t *testing.T, name string) chaosWorkload {
	t.Helper()
	var w chaosWorkload
	if name == "optimal" {
		w.initial, w.goal = workload.Travel(), workload.TravelQ2()
	} else {
		stream, err := workload.NewStream("synthetic", workload.StreamConfig{Batches: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		w.initial, w.batches, w.goal = stream.Initial, stream.Batches, stream.Goal
	}
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, w.initial); err != nil {
		t.Fatal(err)
	}
	w.csv = csv.String()
	return w
}

// driver is one session under differential test: the HTTP session id
// plus a never-interrupted in-process reference tracked in lockstep.
type driver struct {
	t         *testing.T
	id        string
	ref       *core.Session
	refSt     *core.State
	w         chaosWorkload
	nextBatch int
	questions int
	converged bool
}

// newDriver creates a session on node n (so n owns it) and its
// uninterrupted in-process reference.
func newDriver(t *testing.T, n *Node, name string, seed int64, w chaosWorkload) *driver {
	t.Helper()
	refRel := relation.New(w.initial.Schema())
	w.initial.Each(func(i int, tu relation.Tuple) { refRel.MustAppend(tu) })
	refSt, err := core.NewState(refRel)
	if err != nil {
		t.Fatal(err)
	}
	picker, err := strategy.ByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewSession(refSt, picker)
	ref.RedeferLimit = -1
	var s summary
	doJSON(t, "POST", n.Base()+"/sessions",
		map[string]any{"csv": w.csv, "strategy": name, "seed": seed},
		http.StatusCreated, &s)
	return &driver{t: t, id: s.ID, ref: ref, refSt: refSt, w: w}
}

func (d *driver) label(i int) string {
	if core.Selects(d.w.goal, d.refSt.Relation().Tuple(i)) {
		return "+"
	}
	return "-"
}

func parseLabel(s string) core.Label {
	if s == "+" {
		return core.Positive
	}
	return core.Negative
}

// drive runs the dialogue against base in lockstep with the reference
// until convergence (stopAt < 0) or stopAt total questions, checking
// every proposal tuple for tuple. Mirrors the cluster failover
// differential's protocol: a skip at question 2 (mod 5) keeps a
// non-empty skip set in flight, and batches stream in mid-dialogue.
func (d *driver) drive(base string, stopAt int) {
	t := d.t
	if d.converged {
		return
	}
	for step := 0; ; step++ {
		if step > 6*d.refSt.Relation().Len() {
			t.Fatal("protocol did not converge")
		}
		if stopAt >= 0 && d.questions >= stopAt {
			return
		}
		if d.nextBatch < len(d.w.batches) && step%4 == 3 {
			batch := d.w.batches[d.nextBatch]
			rows := make([][]string, len(batch))
			for bi, tu := range batch {
				row := make([]string, len(tu))
				for c, v := range tu {
					row[c] = relation.EncodeCell(v)
				}
				rows[bi] = row
			}
			doJSON(t, "POST", base+"/tuples", map[string]any{"rows": rows}, http.StatusOK, nil)
			b, err := relation.BatchOf(d.refSt.Relation().Schema().Len(), batch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.ref.Append(b); err != nil {
				t.Fatal(err)
			}
			d.nextBatch++
			continue
		}
		var n next
		doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
		refIdx, refOK := d.ref.Propose()
		if n.Done != !refOK {
			t.Fatalf("step %d: done=%v over HTTP, propose ok=%v in-process", step, n.Done, refOK)
		}
		if n.Done {
			if d.nextBatch < len(d.w.batches) {
				continue
			}
			d.converged = true
			return
		}
		if n.Tuple.Index != refIdx {
			t.Fatalf("step %d (q%d): HTTP proposed tuple %d, reference %d",
				step, d.questions, n.Tuple.Index, refIdx)
		}
		if d.questions%5 == 2 {
			doJSON(t, "POST", base+"/label",
				map[string]any{"index": n.Tuple.Index, "label": "skip"}, http.StatusOK, nil)
			if err := d.ref.Skip(refIdx); err != nil {
				t.Fatal(err)
			}
		} else {
			doJSON(t, "POST", base+"/label",
				map[string]any{"index": n.Tuple.Index, "label": d.label(n.Tuple.Index)},
				http.StatusOK, nil)
			if _, err := d.ref.Answer(refIdx, parseLabel(d.label(refIdx))); err != nil {
				t.Fatal(err)
			}
		}
		d.questions++
	}
}

// checkSummary compares the HTTP session summary at base against the
// reference's progress.
func (d *driver) checkSummary(base string) {
	d.t.Helper()
	var sum summary
	doJSON(d.t, "GET", base, nil, http.StatusOK, &sum)
	p := d.ref.Progress()
	if sum.Labels != p.Explicit || sum.Implied != p.Implied ||
		sum.Informative != p.Informative || sum.Tuples != p.Total || sum.Done != d.ref.Done() {
		d.t.Fatalf("session %s summary %+v, reference progress %+v done=%v",
			d.id, sum, p, d.ref.Done())
	}
}

// finish drives the session at base to convergence and compares the
// final inferred predicate against the reference's.
func (d *driver) finish(base string) {
	t := d.t
	d.drive(base, -1)
	if !d.ref.Done() {
		t.Fatal("reference session did not converge with the HTTP session")
	}
	var res struct {
		Done      bool   `json:"done"`
		Predicate string `json:"predicate"`
	}
	doJSON(t, "GET", base+"/result", nil, http.StatusOK, &res)
	if !res.Done {
		t.Errorf("session %s not done over HTTP", d.id)
	}
	if res.Predicate != d.ref.Result().String() {
		t.Errorf("session %s final M_P = %s, reference %s", d.id, res.Predicate, d.ref.Result().String())
	}
}

func sessionBase(n *Node, id string) string { return n.Base() + "/sessions/" + id }

// noRedirect reads a 307 as the reply instead of following it.
var noRedirect = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
	return http.ErrUseLastResponse
}}

// checkOwnership asserts the ownership property a transition must
// leave behind: every alive node reports the same failed map, every
// session is live on exactly one alive node, and each other alive node
// answers it with a 307 naming that owner in X-Jim-Owner.
func checkOwnership(t *testing.T, h *Harness) {
	t.Helper()
	alive := h.Alive()
	owner := map[string]string{}
	var failed map[string]string
	for i, id := range alive {
		n := h.Node(id)
		if v := view(t, n); i == 0 {
			failed = v.Failed
		} else if !maps.Equal(v.Failed, failed) {
			t.Fatalf("%s reports failed %v, %s reports %v", id, v.Failed, alive[0], failed)
		}
		var list struct {
			Sessions []summary `json:"sessions"`
			Total    int       `json:"total"`
		}
		doJSON(t, "GET", n.Base()+"/sessions?limit=1000", nil, http.StatusOK, &list)
		if len(list.Sessions) != list.Total {
			t.Fatalf("%s listed %d of %d sessions", id, len(list.Sessions), list.Total)
		}
		for _, s := range list.Sessions {
			if prev, dup := owner[s.ID]; dup {
				t.Fatalf("session %s is live on both %s and %s", s.ID, prev, id)
			}
			owner[s.ID] = id
		}
	}
	for sid, own := range owner {
		want := own + "=" + h.Node(own).httpAddr
		for _, id := range alive {
			if id == own {
				continue
			}
			resp, err := noRedirect.Get(sessionBase(h.Node(id), sid))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.Header.Get("X-Jim-Owner"); resp.StatusCode != http.StatusTemporaryRedirect || got != want {
				t.Fatalf("GET session %s on %s: %d X-Jim-Owner %q, want 307 %q", sid, id, resp.StatusCode, got, want)
			}
		}
	}
}

// TestChaosKillAutoPromoteRejoinDifferential is the lifecycle
// acceptance test: for every shipped strategy, three nodes each own a
// mid-dialogue session; one node is killed cold; BOTH survivors'
// failure detectors confirm the death by quorum and fail over with
// zero operator calls; the dialogue continues on the promoted
// follower; the dead node restarts, rejoins, and reclaims its range;
// and every session converges tuple-for-tuple against its
// never-interrupted reference.
func TestChaosKillAutoPromoteRejoinDifferential(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			w := loadWorkload(t, name)
			forEachSeed(t, func(t *testing.T, seed int64) {
				h := Start(t, lease, "nA", "nB", "nC")
				nA, nB, nC := h.Node("nA"), h.Node("nB"), h.Node("nC")

				drv := map[string]*driver{
					"nA": newDriver(t, nA, name, seed, w),
					"nB": newDriver(t, nB, name, seed, w),
					"nC": newDriver(t, nC, name, seed, w),
				}

				// Phase 1: every session past its question-2 skip, so the
				// replicas carry non-empty skip sets into the failover.
				for id, d := range drv {
					d.drive(sessionBase(h.Node(id), d.id), 3)
				}
				for _, id := range []string{"nA", "nB", "nC"} {
					quiesce(t, h.Node(id))
				}

				// Kill nA cold. Nobody calls POST /cluster/promote: the
				// survivors' detectors must confirm the death on their own
				// once the lease expires.
				h.Kill("nA")
				h.Clock.Advance(pastLease)
				confirmed := h.TickAll()
				for _, id := range []string{"nB", "nC"} {
					if got := confirmed[id]; len(got) != 1 || got[0] != "nA" {
						t.Fatalf("tick on %s confirmed %v, want [nA]", id, got)
					}
					v := view(t, h.Node(id))
					if v.Failed["nA"] != "nB" || len(v.Alive) != 2 {
						t.Fatalf("%s view after auto-failover = %+v, want nA failed over to nB", id, v)
					}
					if v.LeaseMS != float64(lease.Milliseconds()) {
						t.Fatalf("%s lease_ms = %v, want %v", id, v.LeaseMS, lease.Milliseconds())
					}
				}
				checkOwnership(t, h)

				// Phase 2: nA's session answers on the promoted follower —
				// summary intact, proposals still in lockstep.
				drv["nA"].checkSummary(sessionBase(nB, drv["nA"].id))
				drv["nA"].drive(sessionBase(nB, drv["nA"].id), 6)
				drv["nB"].drive(sessionBase(nB, drv["nB"].id), 6)
				drv["nC"].drive(sessionBase(nC, drv["nC"].id), 6)

				// The dead node comes back from its surviving store and
				// reclaims its range from the promoted holder.
				h.Restart("nA")
				rep := h.Rejoin("nA")
				if !rep.Rejoined || rep.Holder != "nB" {
					t.Fatalf("rejoin report = %+v, want rejoined via nB", rep)
				}
				if rep.Reclaimed != 1 {
					t.Fatalf("rejoin reclaimed %d sessions, want 1", rep.Reclaimed)
				}
				for _, id := range []string{"nA", "nB", "nC"} {
					v := view(t, h.Node(id))
					if len(v.Failed) != 0 || len(v.Alive) != 3 {
						t.Fatalf("%s view after rejoin = %+v, want all three alive", id, v)
					}
				}
				checkOwnership(t, h)

				// A detection pass after the rejoin must not re-kill anyone:
				// the lease was re-granted and heartbeats are flowing again.
				h.Clock.Advance(pastLease)
				if confirmed := h.TickAll(); len(confirmed) != 0 {
					t.Fatalf("post-rejoin tick confirmed deaths: %v", confirmed)
				}

				// Phase 3: every session converges on its original owner.
				drv["nA"].checkSummary(sessionBase(nA, drv["nA"].id))
				drv["nA"].finish(sessionBase(nA, drv["nA"].id))
				drv["nB"].finish(sessionBase(nB, drv["nB"].id))
				drv["nC"].finish(sessionBase(nC, drv["nC"].id))
			})
		})
	}
}

// TestChaosPartitionDoesNotPromote pins the partition-tolerance half
// of the detector contract: cutting a node's inbound replication link
// starves it of heartbeats, but the direct liveness probe still
// succeeds, so NO failover happens — and once the link heals, the
// stream resyncs and a later real failover loses nothing.
func TestChaosPartitionDoesNotPromote(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		name := "local-most-specific"
		w := loadWorkload(t, name)
		h := Start(t, lease, "nA", "nB", "nC")
		nA, nB := h.Node("nA"), h.Node("nB")

		d := newDriver(t, nA, name, seed, w)
		d.drive(sessionBase(nA, d.id), 2)
		quiesce(t, nA)

		// Cut nA -> nB replication (heartbeats included). nB stops hearing
		// from nA entirely.
		h.PartitionRepl("nB")
		d.drive(sessionBase(nA, d.id), 5)

		h.Clock.Advance(pastLease)
		if confirmed := h.TickAll(); len(confirmed) != 0 {
			t.Fatalf("partition triggered failover: %v", confirmed)
		}
		for _, id := range []string{"nA", "nB", "nC"} {
			if v := view(t, h.Node(id)); len(v.Failed) != 0 {
				t.Fatalf("%s marked nodes failed during a partition: %+v", id, v.Failed)
			}
		}

		// Heal: the shipper reconnects and resyncs the events that queued
		// up behind the cut; the barrier proves nothing was lost.
		h.HealRepl("nB")
		quiesce(t, nA)

		// Now a real death: the replica nB rebuilt across the partition
		// must carry the dialogue forward tuple for tuple.
		h.Kill("nA")
		h.Clock.Advance(pastLease)
		confirmed := h.TickAll()
		if got := confirmed["nB"]; len(got) != 1 || got[0] != "nA" {
			t.Fatalf("tick on nB confirmed %v, want [nA]", got)
		}
		d.checkSummary(sessionBase(nB, d.id))
		d.finish(sessionBase(nB, d.id))
	})
}

// TestChaosDelayedHeartbeatsDoNotPromote: a slow replication link
// (every chunk held up in the proxy) delays heartbeats but never stops
// them — detection must stay quiet and the sync barrier must still
// clear through the slow link.
func TestChaosDelayedHeartbeatsDoNotPromote(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		name := "local-most-specific"
		w := loadWorkload(t, name)
		h := Start(t, lease, "nA", "nB", "nC")
		nA := h.Node("nA")

		h.DelayRepl("nB", 10*time.Millisecond)
		d := newDriver(t, nA, name, seed, w)
		d.drive(sessionBase(nA, d.id), 4)

		h.Clock.Advance(pastLease)
		if confirmed := h.TickAll(); len(confirmed) != 0 {
			t.Fatalf("delayed heartbeats triggered failover: %v", confirmed)
		}
		quiesce(t, nA)
		h.DelayRepl("nB", 0)
		d.finish(sessionBase(nA, d.id))
	})
}

// TestChaosRebalanceAfterPeerSetGrowth is the planned-movement
// schedule: a two-node cluster drains cleanly, restarts with a third
// peer in the set, and POST /v1/cluster/rebalance ships exactly the
// sessions the enlarged ring assigns to the new node — which then
// serves them tuple-for-tuple against their references.
func TestChaosRebalanceAfterPeerSetGrowth(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		name := "local-most-specific"
		w := loadWorkload(t, name)
		h := Start(t, lease, "nA", "nB")

		// The enlarged ring decides which ids move; creating sessions until
		// at least two land in nC's future range keeps the schedule
		// deterministic without hand-picking hash values.
		grown, err := cluster.NewMembership(append(append([]cluster.Node{}, h.peers...),
			cluster.Node{ID: "nC", HTTP: "placeholder"}), 0)
		if err != nil {
			t.Fatal(err)
		}
		type placed struct {
			d     *driver
			home  string // owner in the 2-node cluster
			owner string // owner in the 3-node ring
		}
		var sessions []placed
		moving := 0
		for i := 0; moving < 2 && i < 12; i++ {
			home := "nA"
			if i%2 == 1 {
				home = "nB"
			}
			d := newDriver(t, h.Node(home), name, seed, w)
			owner := grown.OwnerID(d.id)
			if owner == "nC" {
				moving++
			}
			sessions = append(sessions, placed{d: d, home: home, owner: owner})
		}
		if moving < 2 {
			t.Fatalf("no session ids hash to the new node across %d creates", len(sessions))
		}
		for _, p := range sessions {
			p.d.drive(sessionBase(h.Node(p.home), p.d.id), 2)
		}

		// Planned shutdown through the drain path, then restart everything
		// with the three-node peer set.
		for _, id := range []string{"nA", "nB"} {
			var dr struct {
				Sessions    int  `json:"sessions"`
				Snapshotted int  `json:"snapshotted"`
				Synced      bool `json:"synced"`
			}
			doJSON(t, "POST", h.Node(id).Base()+"/cluster/drain", nil, http.StatusOK, &dr)
			if dr.Sessions != dr.Snapshotted || !dr.Synced {
				t.Fatalf("drain on %s = %+v", id, dr)
			}
		}
		h.Kill("nA")
		h.Kill("nB")
		h.Grow("nC")
		h.Restart("nA")
		h.Restart("nB")

		// Nobody marked the restarted nodes failed — rejoin must be a
		// clean no-op on a planned restart.
		if rep := h.Rejoin("nA"); rep.Rejoined {
			t.Fatalf("planned restart triggered a rejoin: %+v", rep)
		}

		// Rebalance each pre-existing node; together they must move
		// exactly the sessions the enlarged ring hands to nC.
		totalMoved := 0
		for _, id := range []string{"nA", "nB"} {
			var rb struct {
				Sessions int            `json:"sessions"`
				Moved    int            `json:"moved"`
				Targets  map[string]int `json:"targets"`
				Synced   bool           `json:"synced"`
			}
			doJSON(t, "POST", h.Node(id).Base()+"/cluster/rebalance", nil, http.StatusOK, &rb)
			if !rb.Synced {
				t.Fatalf("rebalance on %s did not sync: %+v", id, rb)
			}
			if rb.Moved != rb.Targets["nC"] {
				t.Fatalf("rebalance on %s moved %d but targeted %+v", id, rb.Moved, rb.Targets)
			}
			totalMoved += rb.Moved
		}
		if totalMoved != moving {
			t.Fatalf("rebalance moved %d sessions, ring assigns %d to nC", totalMoved, moving)
		}
		checkOwnership(t, h)

		// Every session converges on its post-growth owner, still in
		// lockstep with its reference.
		for _, p := range sessions {
			owner := h.Node(p.owner)
			p.d.checkSummary(sessionBase(owner, p.d.id))
			p.d.finish(sessionBase(owner, p.d.id))
		}
	})
}
