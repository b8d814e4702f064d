package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestDiskFsyncFailureFailsWholeBatch drives one hand-built group-commit
// batch through commitSession with an injected fsync failure and
// requires the error to reach every request in the batch — including
// the snapshot that succeeded on its own: the group commit deferred all
// of their durability to the one Sync that failed, so acking any of
// them would be a lie.
func TestDiskFsyncFailureFailsWholeBatch(t *testing.T) {
	boom := errors.New("injected fsync failure")
	d := &Disk{
		dir:     t.TempDir(),
		fsync:   true,
		syncWAL: func(*os.File) error { return boom },
		syncDir: fsyncDir,
	}
	c := &committer{d: d, wals: make(map[string]*os.File), lastSeq: make(map[string]uint64)}
	defer c.closeAll()

	const id = "s0001"
	mkreq := func(kind reqKind) *diskReq {
		r := &diskReq{kind: kind, id: id, err: make(chan error, 1)}
		if kind == reqAppend {
			r.ev = Event{Op: OpLabel, Index: 0, Label: "+"}
		} else {
			r.snap = Snapshot{Session: json.RawMessage(`{}`)}
		}
		return r
	}
	batch := []*diskReq{mkreq(reqSnapshot), mkreq(reqAppend), mkreq(reqAppend)}
	c.commitSession(id, batch)
	for i, req := range batch {
		err := <-req.err
		if err == nil || !errors.Is(err, boom) {
			t.Errorf("batch request %d (kind %d) error = %v, want the injected fsync failure", i, req.kind, err)
		}
	}

	// The failed fsync leaves the durable prefix of the log unknown, so
	// the WAL must be poisoned: further appends are refused even though
	// fsync works again.
	d.syncWAL = (*os.File).Sync
	if _, err := c.appendEvent(id, Event{Op: OpLabel, Index: 1, Label: "-"}); err == nil ||
		!strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append after failed fsync = %v, want poisoned refusal", err)
	}

	// A snapshot rebuilds the log from scratch and repairs the poison.
	if err := c.snapshot(id, Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatalf("repairing snapshot: %v", err)
	}
	if _, err := c.appendEvent(id, Event{Op: OpLabel, Index: 1, Label: "-"}); err != nil {
		t.Fatalf("append after repairing snapshot: %v", err)
	}
}

// TestDiskFsyncFailurePoisonsUntilSnapshot exercises the same path end
// to end through the public API: with a failing fsync no concurrent
// append may be acked, the session stays refused until a snapshot
// repairs it, and recovery afterwards sees exactly the repaired state.
func TestDiskFsyncFailurePoisonsUntilSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, true)
	boom := errors.New("injected fsync failure")
	d.syncWAL = func(*os.File) error { return boom }

	const id = "s0001"
	const appends = 16
	errs := make([]error, appends)
	var wg sync.WaitGroup
	for i := 0; i < appends; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = d.AppendEvent(id, Event{Op: OpLabel, Index: i, Label: "+"})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("append %d was acked despite the failing fsync", i)
		}
	}

	// Restore a working fsync: the WAL stays poisoned regardless.
	d.syncWAL = (*os.File).Sync
	if err := d.AppendEvent(id, Event{Op: OpLabel, Index: 0, Label: "+"}); err == nil ||
		!strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on poisoned wal = %v, want poisoned refusal", err)
	}

	// Snapshot repairs; appends flow again.
	if err := d.Snapshot(id, Snapshot{Strategy: "random", Session: json.RawMessage(`{"v":1}`)}); err != nil {
		t.Fatalf("repairing snapshot: %v", err)
	}
	if err := d.AppendEvent(id, Event{Op: OpLabel, Index: 3, Label: "-"}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees the snapshot plus only the post-repair event: none
	// of the failed appends leaked into the durable state.
	d2 := openDisk(t, dir, false)
	defer d2.Close()
	saved, err := d2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 || saved[0].ID != id {
		t.Fatalf("LoadAll = %+v", saved)
	}
	sv := saved[0]
	if sv.Snapshot == nil || sv.Snapshot.Strategy != "random" {
		t.Fatalf("snapshot = %+v", sv.Snapshot)
	}
	if len(sv.Events) != 1 || sv.Events[0].Index != 3 || sv.Events[0].Label != "-" {
		t.Fatalf("events = %+v, want only the post-repair append", sv.Events)
	}
	if fmt.Sprint(sv.Events[0].Op) != fmt.Sprint(OpLabel) {
		t.Fatalf("event op = %v", sv.Events[0].Op)
	}
}
