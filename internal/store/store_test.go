package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func openDisk(t *testing.T, dir string, fsync bool) *Disk {
	t.Helper()
	d, err := NewDisk(DiskOptions{Dir: dir, Fsync: fsync})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMemIsInert(t *testing.T) {
	m := NewMem()
	if m.Name() != "mem" {
		t.Fatalf("name = %q", m.Name())
	}
	if err := m.AppendEvent("s1", Event{Op: OpLabel, Index: 3, Label: "+"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot("s1", Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	saved, err := m.LoadAll()
	if err != nil || len(saved) != 0 {
		t.Fatalf("LoadAll = %v, %v; want empty", saved, err)
	}
	if err := m.Compact("s1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			dir := t.TempDir()
			d := openDisk(t, dir, fsync)
			if err := d.Snapshot("s0001", Snapshot{
				Strategy: "lookahead-maxmin",
				Seed:     7,
				Session:  json.RawMessage(`{"version":2}`),
			}); err != nil {
				t.Fatal(err)
			}
			events := []Event{
				{Op: OpLabel, Index: 0, Label: "+"},
				{Op: OpSkip, Index: 2},
				{Op: OpAppend, Rows: [][]string{{"i:1", "s:x"}}},
				{Op: OpLabel, Index: 1, Label: "-"},
			}
			for _, ev := range events {
				if err := d.AppendEvent("s0001", ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d2 := openDisk(t, dir, fsync)
			defer d2.Close()
			saved, err := d2.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(saved) != 1 || saved[0].ID != "s0001" {
				t.Fatalf("LoadAll = %+v", saved)
			}
			sv := saved[0]
			if sv.Snapshot == nil || sv.Snapshot.Strategy != "lookahead-maxmin" || sv.Snapshot.Seed != 7 {
				t.Fatalf("snapshot = %+v", sv.Snapshot)
			}
			if len(sv.Events) != len(events) {
				t.Fatalf("got %d events, want %d: %+v", len(sv.Events), len(events), sv.Events)
			}
			for i, ev := range sv.Events {
				if ev.Op != events[i].Op || ev.Index != events[i].Index || ev.Label != events[i].Label {
					t.Errorf("event %d = %+v, want %+v", i, ev, events[i])
				}
				if ev.Seq != uint64(i+1) {
					t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
				}
			}
		})
	}
}

func TestDiskSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	defer d.Close()
	if err := d.Snapshot("s1", Snapshot{Session: json.RawMessage(`{"v":1}`)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.AppendEvent("s1", Event{Op: OpLabel, Index: i, Label: "+"}); err != nil {
			t.Fatal(err)
		}
	}
	// The second snapshot folds the 5 events in; the log resets.
	if err := d.Snapshot("s1", Snapshot{Session: json.RawMessage(`{"v":2}`)}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvent("s1", Event{Op: OpSkip, Index: 9}); err != nil {
		t.Fatal(err)
	}
	saved, err := d.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	sv := saved[0]
	if string(sv.Snapshot.Session) != `{"v":2}` {
		t.Fatalf("snapshot body = %s", sv.Snapshot.Session)
	}
	if sv.Snapshot.Seq != 5 {
		t.Fatalf("snapshot seq = %d, want 5", sv.Snapshot.Seq)
	}
	if len(sv.Events) != 1 || sv.Events[0].Op != OpSkip || sv.Events[0].Seq != 6 {
		t.Fatalf("events after snapshot = %+v", sv.Events)
	}
}

// TestDiskStaleWALAfterSnapshot models a crash between "snapshot
// renamed" and "wal truncated": events the snapshot already covers
// must not replay again.
func TestDiskStaleWALAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	for i := 0; i < 3; i++ {
		if err := d.AppendEvent("s1", Event{Op: OpLabel, Index: i, Label: "+"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot("s1", Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-create the pre-truncate WAL: the same three covered events.
	var buf []byte
	for i := 0; i < 3; i++ {
		line, _ := json.Marshal(Event{Seq: uint64(i + 1), Op: OpLabel, Index: i, Label: "+"})
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	wal := filepath.Join(dir, "sessions", "s1", walFile)
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDisk(t, dir, false)
	defer d2.Close()
	saved, err := d2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved[0].Events) != 0 {
		t.Fatalf("covered events replayed: %+v", saved[0].Events)
	}
	// New events must continue past the snapshot's sequence.
	if err := d2.AppendEvent("s1", Event{Op: OpSkip, Index: 0}); err != nil {
		t.Fatal(err)
	}
	saved, _ = d2.LoadAll()
	if len(saved[0].Events) != 1 || saved[0].Events[0].Seq != 4 {
		t.Fatalf("post-recovery events = %+v, want seq 4", saved[0].Events)
	}
}

// TestDiskTornTail verifies a half-written final line (crash mid
// write) drops only that line.
func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	if err := d.Snapshot("s1", Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvent("s1", Event{Op: OpLabel, Index: 1, Label: "+"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "sessions", "s1", walFile)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"op":"lab`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := openDisk(t, dir, false)
	defer d2.Close()
	saved, err := d2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved[0].Events) != 1 || saved[0].Events[0].Index != 1 {
		t.Fatalf("events = %+v, want the one intact line", saved[0].Events)
	}
}

func TestDiskCompactRemovesSession(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	defer d.Close()
	if err := d.Snapshot("s1", Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot("s2", Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact("s1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact("never-existed"); err != nil {
		t.Fatalf("compacting an unknown id: %v", err)
	}
	saved, err := d.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 || saved[0].ID != "s2" {
		t.Fatalf("after compact: %+v", saved)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "s1")); !os.IsNotExist(err) {
		t.Fatalf("s1 directory still present: %v", err)
	}
}

// TestDiskCompactSyncsSessionsDir: with Fsync, a delete is acknowledged
// only once the sessions directory is synced after the removal, so the
// session cannot come back after a power loss; a failed sync fails the
// Compact, and a retry with syncs working completes it.
func TestDiskCompactSyncsSessionsDir(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, true)
	defer d.Close()
	if _, err := d.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot("s1", Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	sessions := filepath.Join(dir, "sessions")
	sess := filepath.Join(sessions, "s1")
	boom := errors.New("injected dir sync failure")
	d.syncDir = func(path string) error {
		if _, err := os.Stat(sess); path == sessions && !os.IsNotExist(err) {
			t.Errorf("sessions directory synced before the session was removed (%v)", err)
		}
		return boom
	}
	if err := d.Compact("s1"); !errors.Is(err, boom) {
		t.Fatalf("compact with failing dir sync = %v, want the injected failure", err)
	}
	var synced []string
	d.syncDir = func(path string) error { synced = append(synced, path); return fsyncDir(path) }
	if err := d.Compact("s1"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(synced, []string{sessions}) {
		t.Fatalf("compact synced %v, want the sessions directory", synced)
	}
}

// TestDiskConcurrentAppends drives the group-commit path from many
// goroutines: per-session sequences must come back dense and ordered.
func TestDiskConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, true)
	const sessions, perSession = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := fmt.Sprintf("s%04d", s)
			if err := d.Snapshot(id, Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
				errs <- err
				return
			}
			for i := 0; i < perSession; i++ {
				if err := d.AppendEvent(id, Event{Op: OpLabel, Index: i, Label: "+"}); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir, false)
	defer d2.Close()
	saved, err := d2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != sessions {
		t.Fatalf("got %d sessions, want %d", len(saved), sessions)
	}
	for _, sv := range saved {
		if len(sv.Events) != perSession {
			t.Fatalf("%s: %d events, want %d", sv.ID, len(sv.Events), perSession)
		}
		for i, ev := range sv.Events {
			if ev.Seq != uint64(i+1) || ev.Index != i {
				t.Fatalf("%s event %d = %+v", sv.ID, i, ev)
			}
		}
	}
}

func TestDiskRejectsUnsafeIDs(t *testing.T) {
	d := openDisk(t, t.TempDir(), false)
	defer d.Close()
	for _, id := range []string{"", "..", "a/b", "../x", ".hidden", "a b"} {
		if err := d.AppendEvent(id, Event{Op: OpSkip}); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
	if err := d.AppendEvent("ok-id_1.v2", Event{Op: OpSkip}); err != nil {
		t.Errorf("safe id rejected: %v", err)
	}
}

func TestDiskClosedStoreFails(t *testing.T) {
	d := openDisk(t, t.TempDir(), false)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvent("s1", Event{Op: OpSkip}); err == nil {
		t.Fatal("append on closed store succeeded")
	}
	if err := d.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

// TestDiskHandleCacheBounded cycles through more sessions than the
// open-handle cap: every append must still land (evicted handles
// reopen transparently) and nothing may be lost.
func TestDiskHandleCacheBounded(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	const sessions = maxOpenWALs + 20
	for s := 0; s < sessions; s++ {
		id := fmt.Sprintf("s%05d", s)
		if err := d.Snapshot(id, Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
		if err := d.AppendEvent(id, Event{Op: OpLabel, Index: s, Label: "+"}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch an early session again: its handle was certainly evicted.
	if err := d.AppendEvent("s00000", Event{Op: OpSkip, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir, false)
	defer d2.Close()
	saved, err := d2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != sessions {
		t.Fatalf("got %d sessions, want %d", len(saved), sessions)
	}
	for _, sv := range saved {
		want := 1
		if sv.ID == "s00000" {
			want = 2
		}
		if len(sv.Events) != want {
			t.Fatalf("%s: %d events, want %d", sv.ID, len(sv.Events), want)
		}
	}
}

// TestDiskLoadAllPartialOnCorruption: one unreadable session must not
// block the recovery of the others — it comes back as a bare entry
// (id only) with the failure joined into the error.
func TestDiskLoadAllPartialOnCorruption(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	for _, id := range []string{"s0001", "s0002", "s0003"} {
		if err := d.Snapshot(id, Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sessions", "s0002", snapBinFile), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDisk(t, dir, false)
	defer d2.Close()
	saved, err := d2.LoadAll()
	if err == nil {
		t.Fatal("corrupt session reported no error")
	}
	if len(saved) != 3 {
		t.Fatalf("got %d entries, want all 3 (one bare): %+v", len(saved), saved)
	}
	readable := 0
	for _, sv := range saved {
		if sv.ID == "s0002" {
			if sv.Snapshot != nil {
				t.Error("corrupt session came back with a snapshot")
			}
			continue
		}
		if sv.Snapshot == nil {
			t.Errorf("%s lost its snapshot to a neighbor's corruption", sv.ID)
		}
		readable++
	}
	if readable != 2 {
		t.Fatalf("readable sessions = %d, want 2", readable)
	}
}

// TestDiskLargeAppendEventRecovers: one WAL event can carry an entire
// ingestion batch; recovery must have no size ceiling to trip over.
func TestDiskLargeAppendEventRecovers(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	if err := d.Snapshot("s1", Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	// ~70 MB of rows in a single event — past the 64 MiB ceiling a
	// line scanner would impose.
	cell := "s:" + strings.Repeat("x", 1024)
	rows := make([][]string, 68*1024)
	for i := range rows {
		rows[i] = []string{cell}
	}
	if err := d.AppendEvent("s1", Event{Op: OpAppend, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvent("s1", Event{Op: OpLabel, Index: 1, Label: "+"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir, false)
	defer d2.Close()
	saved, err := d2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	evs := saved[0].Events
	if len(evs) != 2 || len(evs[0].Rows) != len(rows) || evs[1].Op != OpLabel {
		t.Fatalf("recovered %d events (first has %d rows)", len(evs), len(evs[0].Rows))
	}
}

// TestDiskDirectoryLock: two stores on one directory would interleave
// appends and truncates; the second opener must fail fast, and a
// closed store must release the directory.
func TestDiskDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	if _, err := NewDisk(DiskOptions{Dir: dir}); err == nil {
		t.Fatal("second store on a held directory accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(DiskOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	d2.Close()
}
