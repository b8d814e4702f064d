package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/values"
)

// exactCell is Value.Identical made exact for floats: same kind and
// payload word, and for strings the same text, so NaN matches NaN and
// −0 does not match +0.
func exactCell(a, b values.Value) bool {
	if a.Kind() == values.KindString {
		return a.Identical(b)
	}
	return a.Kind() == b.Kind() && a.Word() == b.Word()
}

// TestAppendedCellsSurviveRestoreAndReplica sends every cell kind, in
// the shapes a tagged round trip can lose, through the two decoders of
// a WAL append event: an append to a disk-backed session replays from
// its WAL on Restore, and the same event applies to a replica through
// ApplyEvent. Each path must rebuild every appended cell exactly.
func TestAppendedCellsSurviveRestoreAndReplica(t *testing.T) {
	pool := []values.Value{
		values.Null(), values.Bool(true), values.Bool(false), values.Int(math.MaxInt64),
		values.Float(math.NaN()), values.Float(math.Copysign(0, -1)), values.Str(""),
		values.Str("42"), values.Str("-0"), values.Str("2.5"), values.Str("NaN"), values.Str("true"),
	}
	var rows []relation.Tuple
	for k := range pool {
		rows = append(rows, relation.Tuple{pool[k], pool[(k+5)%len(pool)], pool[(k+7)%len(pool)]})
	}

	dir := t.TempDir()
	ds, err := store.NewDisk(store.DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	owner := NewWith(Config{Store: ds})
	rec := httptest.NewRecorder()
	owner.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions",
		strings.NewReader(`{"csv":"a,b,c\n1,2,3\n"}`)))
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || rec.Code != 201 {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	ls, _ := owner.sessions.get(created.ID)

	// The follower holds the session as a replica: its id must hash to
	// the other node, or ApplySnapshot adopts it as live instead.
	follower := NewWith(Config{})
	if err := follower.EnableCluster(ClusterOptions{Self: "n2", Peers: []cluster.Node{
		{ID: "n1", HTTP: "127.0.0.1:1"}, {ID: "n2", HTTP: "127.0.0.1:2"},
	}}); err != nil {
		t.Fatal(err)
	}
	replicaID := ""
	for k := 0; replicaID == ""; k++ {
		if id := fmt.Sprintf("r%d", k); !follower.ownsID(id) {
			replicaID = id
		}
	}
	snap, err := captureSnapshot(ls)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplySnapshot(replicaID, &snap); err != nil {
		t.Fatal(err)
	}

	b, err := relation.BatchOf(3, rows)
	if err != nil {
		t.Fatal(err)
	}
	ev := appendEvent(b)
	ls.mu.Lock()
	_, err = owner.applyAppend(created.ID, ls, b)
	ls.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ev.Seq = snap.Seq + 1
	if err := follower.ApplyEvent(replicaID, ev); err != nil {
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
	restarted := NewWith(Config{Store: ds2})
	if n, err := restarted.Restore(); err != nil || n != 1 {
		t.Fatalf("restore = %d, %v", n, err)
	}
	restored, _ := restarted.sessions.get(created.ID)
	follower.cluster.repMu.Lock()
	replica := follower.cluster.replicas[replicaID]
	follower.cluster.repMu.Unlock()

	for path, got := range map[string]*liveSession{"restore": restored, "replica": replica} {
		rel := got.sess.Relation()
		if rel.Len() != 1+len(rows) {
			t.Fatalf("%s: %d tuples, want %d", path, rel.Len(), 1+len(rows))
		}
		for i, tu := range rows {
			for c, v := range tu {
				if cell := rel.Cell(1+i, c); !exactCell(cell, v) {
					t.Errorf("%s: tuple %d column %d is %#v, want %#v", path, 1+i, c, cell, v)
				}
			}
		}
	}
}
