package loadtest_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/loadtest"
	"repro/internal/server"
)

func TestRunWorkloads(t *testing.T) {
	for _, wl := range []string{"travel", "synthetic", "zipf"} {
		t.Run(wl, func(t *testing.T) {
			rep, err := loadtest.Run(loadtest.Config{
				Users: 6, SessionsPerUser: 2, Workload: wl, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sessions != 12 || rep.Completed != 12 {
				t.Errorf("sessions=%d completed=%d, want 12/12 (first error: %s)",
					rep.Sessions, rep.Completed, rep.FirstError)
			}
			if rep.Errors != 0 {
				t.Errorf("errors=%d: %s", rep.Errors, rep.FirstError)
			}
			if rep.Questions == 0 {
				t.Error("no questions asked")
			}
			// Every session issues at least create + next + result + delete.
			if rep.Requests < 4*rep.Sessions {
				t.Errorf("requests=%d, want >= %d", rep.Requests, 4*rep.Sessions)
			}
			if rep.SessionsPerSec <= 0 || rep.RequestsPerSec <= 0 {
				t.Errorf("throughput missing: %+v", rep)
			}
			q := rep.Latency
			if q.P50 <= 0 || q.P95 < q.P50 || q.P99 < q.P95 || q.Max < q.P99 {
				t.Errorf("latency quantiles not monotone positive: %+v", q)
			}
		})
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := loadtest.Run(loadtest.Config{Workload: "bogus"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRunAgainstCountsServerSide cross-checks the client-side report
// against the server's own /stats counters.
func TestRunAgainstCountsServerSide(t *testing.T) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	rep, err := loadtest.RunAgainst(ts.URL, ts.Client(), loadtest.Config{
		Users: 4, Workload: "travel", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Fatalf("completed=%d: %s", rep.Completed, rep.FirstError)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Sessions struct {
			Active  int64 `json:"active"`
			Created int64 `json:"created"`
		} `json:"sessions"`
		Labels struct {
			Total int64 `json:"total"`
		} `json:"labels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions.Created != 4 || stats.Sessions.Active != 0 {
		t.Errorf("server sessions = %+v, want 4 created / 0 active", stats.Sessions)
	}
	if stats.Labels.Total != int64(rep.Questions) {
		t.Errorf("server labels = %d, client questions = %d", stats.Labels.Total, rep.Questions)
	}
}

// TestReportJSONRoundTrip: the report is the BENCH_server.json payload;
// it must survive serialization with its field names intact.
func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := loadtest.Run(loadtest.Config{Users: 2, Workload: "travel"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"workload", "sessions_per_sec", "p95_ms", "completed"} {
		if !strings.Contains(string(data), key) {
			t.Errorf("marshaled report missing %q: %s", key, data)
		}
	}
	var back loadtest.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Completed != rep.Completed || back.Latency.P95 != rep.Latency.P95 {
		t.Errorf("round trip changed report: %+v vs %+v", back, rep)
	}
}

// TestStreamingRunCompletes drives concurrent users that label while
// their instances grow in append batches, and requires every session
// to converge with its full instance ingested and zero errors.
func TestStreamingRunCompletes(t *testing.T) {
	rep, err := loadtest.Run(loadtest.Config{
		Users: 4, Workload: "zipf", StreamBatches: 5, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("streaming run had %d errors, first: %s", rep.Errors, rep.FirstError)
	}
	if rep.Completed != 4 {
		t.Fatalf("completed %d/4 streaming sessions", rep.Completed)
	}
	if rep.StreamBatches != 5 {
		t.Fatalf("report stream_batches = %d, want 5", rep.StreamBatches)
	}
	if want := 4 * 5; rep.Appends != want {
		t.Fatalf("report appends = %d, want %d (every batch for every user)", rep.Appends, want)
	}
	if rep.Questions == 0 {
		t.Fatal("streaming run labeled nothing")
	}
}

// TestStepRunCompletes drives the one-round-trip /step protocol and
// cross-checks it against the classic next+label run: same dialogues
// (question count), fewer requests, zero errors.
func TestStepRunCompletes(t *testing.T) {
	step, err := loadtest.Run(loadtest.Config{
		Users: 4, Workload: "travel", UseStep: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if step.Completed != 4 || step.Errors != 0 {
		t.Fatalf("completed=%d errors=%d: %s", step.Completed, step.Errors, step.FirstError)
	}
	if !step.UseStep {
		t.Error("report does not mark the run as use_step")
	}
	classic, err := loadtest.Run(loadtest.Config{
		Users: 4, Workload: "travel", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if step.Questions != classic.Questions {
		t.Errorf("step run asked %d questions, classic %d — /step changed the dialogue",
			step.Questions, classic.Questions)
	}
	if step.Requests >= classic.Requests {
		t.Errorf("step run issued %d requests, classic %d — expected fewer round trips",
			step.Requests, classic.Requests)
	}
}

// TestWireRunCompletes drives the binary wire protocol and cross-checks
// it against the classic HTTP run: same dialogues (question count),
// zero errors, and one persistent connection per user — the reuse
// counters must show every frame after the dial riding that connection.
func TestWireRunCompletes(t *testing.T) {
	wireRep, err := loadtest.Run(loadtest.Config{
		Users: 4, SessionsPerUser: 2, Workload: "travel", UseWire: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wireRep.Completed != 8 || wireRep.Errors != 0 {
		t.Fatalf("completed=%d errors=%d: %s", wireRep.Completed, wireRep.Errors, wireRep.FirstError)
	}
	if !wireRep.UseWire {
		t.Error("report does not mark the run as use_wire")
	}
	if wireRep.ConnsOpened != 4 {
		t.Errorf("wire run opened %d connections, want 4 (one per user)", wireRep.ConnsOpened)
	}
	if wireRep.ConnsReused != wireRep.Requests {
		t.Errorf("wire run reused %d of %d frame exchanges", wireRep.ConnsReused, wireRep.Requests)
	}
	classic, err := loadtest.Run(loadtest.Config{
		Users: 4, SessionsPerUser: 2, Workload: "travel", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wireRep.Questions != classic.Questions {
		t.Errorf("wire run asked %d questions, classic %d — the transport changed the dialogue",
			wireRep.Questions, classic.Questions)
	}
	if wireRep.Requests >= classic.Requests {
		t.Errorf("wire run issued %d exchanges, classic %d requests — expected fewer round trips",
			wireRep.Requests, classic.Requests)
	}
	// The tuned HTTP client must actually reuse connections too.
	if classic.ConnsOpened == 0 || classic.ConnsReused < classic.Requests-classic.ConnsOpened {
		t.Errorf("classic run conns: opened=%d reused=%d of %d requests",
			classic.ConnsOpened, classic.ConnsReused, classic.Requests)
	}
}

// TestWireStreamingRunCompletes combines wire dialogues with streaming
// ingestion on the same persistent connections.
func TestWireStreamingRunCompletes(t *testing.T) {
	rep, err := loadtest.Run(loadtest.Config{
		Users: 4, Workload: "zipf", StreamBatches: 5, UseWire: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Completed != 4 {
		t.Fatalf("completed=%d errors=%d: %s", rep.Completed, rep.Errors, rep.FirstError)
	}
	if want := 4 * 5; rep.Appends != want {
		t.Fatalf("report appends = %d, want %d", rep.Appends, want)
	}
}

// TestWireDiskStoreRunCompletes drives the wire protocol against the
// durable backend — the configuration the BENCH trajectory tracks.
func TestWireDiskStoreRunCompletes(t *testing.T) {
	rep, err := loadtest.Run(loadtest.Config{
		Users: 4, Workload: "travel", Store: "disk", UseWire: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 || rep.Errors != 0 {
		t.Fatalf("completed=%d errors=%d: %s", rep.Completed, rep.Errors, rep.FirstError)
	}
}

// TestStepStreamingRunCompletes combines /step dialogues with streaming
// ingestion: arrivals drip in while each answer+proposal round-trips.
func TestStepStreamingRunCompletes(t *testing.T) {
	rep, err := loadtest.Run(loadtest.Config{
		Users: 4, Workload: "zipf", StreamBatches: 5, UseStep: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Completed != 4 {
		t.Fatalf("completed=%d errors=%d: %s", rep.Completed, rep.Errors, rep.FirstError)
	}
	if want := 4 * 5; rep.Appends != want {
		t.Fatalf("report appends = %d, want %d", rep.Appends, want)
	}
}

// TestDiskStoreRunCompletes drives the ordinary protocol against a
// disk-backed server: durability on must not change a single result.
func TestDiskStoreRunCompletes(t *testing.T) {
	rep, err := loadtest.Run(loadtest.Config{
		Users: 4, Workload: "travel", Store: "disk", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 || rep.Errors != 0 {
		t.Fatalf("completed=%d errors=%d: %s", rep.Completed, rep.Errors, rep.FirstError)
	}
	if rep.Store != "disk" {
		t.Errorf("report store = %q, want disk", rep.Store)
	}
}

// TestRestartScenario runs the kill/recover harness end to end: every
// session must come back, every recovered proposal must match the
// uninterrupted control, and every dialogue must then converge.
func TestRestartScenario(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		rep, err := loadtest.RunRestart(loadtest.Config{
			Users: 4, Workload: "synthetic", Fsync: fsync, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RecoveredSessions != 4 {
			t.Fatalf("fsync=%v: recovered %d sessions, want 4 (%s)", fsync, rep.RecoveredSessions, rep.FirstError)
		}
		if rep.Mismatches != 0 {
			t.Fatalf("fsync=%v: %d proposal mismatches after recovery: %s", fsync, rep.Mismatches, rep.FirstError)
		}
		if rep.VerifiedProposals != 4 || rep.Completed != 4 {
			t.Fatalf("fsync=%v: verified=%d completed=%d: %s", fsync, rep.VerifiedProposals, rep.Completed, rep.FirstError)
		}
		if rep.LabelsBeforeKill == 0 {
			t.Error("no labeled work before the kill — the scenario tested nothing")
		}
		if rep.RecoveryMS < 0 {
			t.Errorf("negative recovery time %v", rep.RecoveryMS)
		}
		if rep.WALFormat != "v2" || rep.WALEvents == 0 || rep.WALBytes == 0 {
			t.Errorf("fsync=%v: WAL metrics missing: %+v", fsync, rep)
		}
		if rep.WALBytesPerEvent >= rep.WALBytesPerEventV1 {
			t.Errorf("fsync=%v: v2 wal bytes/event %.1f not below v1 %.1f",
				fsync, rep.WALBytesPerEvent, rep.WALBytesPerEventV1)
		}
	}
}

// TestRestartFleetLargerThanConcurrency: RestartSessions sizes the
// session fleet independently of Users, which only bounds concurrency
// — the 1024-session benchmark shape, shrunk for CI.
func TestRestartFleetLargerThanConcurrency(t *testing.T) {
	rep, err := loadtest.RunRestart(loadtest.Config{
		Users: 3, RestartSessions: 10, Workload: "travel", Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 10 || rep.Concurrency != 3 {
		t.Fatalf("sessions=%d concurrency=%d, want 10/3", rep.Sessions, rep.Concurrency)
	}
	if rep.RecoveredSessions != 10 {
		t.Fatalf("recovered %d sessions, want 10 (%s)", rep.RecoveredSessions, rep.FirstError)
	}
	if rep.Mismatches != 0 || rep.Completed != 10 {
		t.Fatalf("mismatches=%d completed=%d: %s", rep.Mismatches, rep.Completed, rep.FirstError)
	}
}

// TestClusterScenario: 3-node cluster, 6 sessions spread across the
// nodes, kill node 1 mid-dialogue, promote its follower, and require
// every one of the dead node's sessions to verify proposal-for-
// proposal and finish on the survivor.
func TestClusterScenario(t *testing.T) {
	rep, err := loadtest.RunCluster(loadtest.Config{
		Users: 3, RestartSessions: 6, Workload: "synthetic", Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 3 || rep.KilledNode != "n1" {
		t.Fatalf("nodes=%d killed=%q, want 3/n1", rep.Nodes, rep.KilledNode)
	}
	if rep.SessionsOnKilled == 0 {
		t.Fatal("no sessions landed on the killed node — the scenario tested nothing")
	}
	if rep.RecoveredSessions != rep.SessionsOnKilled {
		t.Fatalf("recovered %d of %d killed-node sessions (%s)",
			rep.RecoveredSessions, rep.SessionsOnKilled, rep.FirstError)
	}
	if rep.AdoptedSessions != rep.SessionsOnKilled {
		t.Fatalf("follower adopted %d sessions, want %d", rep.AdoptedSessions, rep.SessionsOnKilled)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d proposal mismatches after failover: %s", rep.Mismatches, rep.FirstError)
	}
	if rep.VerifiedProposals != rep.Sessions || rep.Completed != rep.Sessions {
		t.Fatalf("verified=%d completed=%d, want %d each: %s",
			rep.VerifiedProposals, rep.Completed, rep.Sessions, rep.FirstError)
	}
	if rep.LabelsBeforeKill == 0 {
		t.Error("no labeled work before the kill")
	}
	if rep.DetectMS < 0 || rep.PromotionMS < 0 {
		t.Errorf("negative failover timings: detect=%v promote=%v", rep.DetectMS, rep.PromotionMS)
	}
}

// TestClusterScenarioAutoFailover runs the same kill-one scenario with
// the lease failure detector in charge: zero promote calls, the
// survivors confirm the death by quorum, and recovery must still be
// session- and proposal-exact.
func TestClusterScenarioAutoFailover(t *testing.T) {
	rep, err := loadtest.RunCluster(loadtest.Config{
		Users: 3, RestartSessions: 6, Workload: "synthetic", Seed: 11,
		AutoFailover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AutoFailover || rep.LeaseMS <= 0 {
		t.Fatalf("report not marked auto-failover: auto=%v lease=%vms", rep.AutoFailover, rep.LeaseMS)
	}
	if rep.RecoveredSessions != rep.SessionsOnKilled || rep.SessionsOnKilled == 0 {
		t.Fatalf("recovered %d of %d killed-node sessions (%s)",
			rep.RecoveredSessions, rep.SessionsOnKilled, rep.FirstError)
	}
	if rep.AdoptedSessions != rep.SessionsOnKilled {
		t.Fatalf("follower adopted %d sessions, want %d", rep.AdoptedSessions, rep.SessionsOnKilled)
	}
	if rep.Mismatches != 0 || rep.Completed != rep.Sessions {
		t.Fatalf("mismatches=%d completed=%d: %s", rep.Mismatches, rep.Completed, rep.FirstError)
	}
	if rep.DetectMS <= 0 {
		t.Errorf("auto-failover detect time not measured: %vms", rep.DetectMS)
	}
}
