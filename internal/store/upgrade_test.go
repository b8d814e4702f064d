package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeSession creates dir/sessions/<id> holding files (name → bytes;
// nil bytes write no file) and returns its path.
func writeSession(t testing.TB, dir, id string, files map[string][]byte) string {
	t.Helper()
	sess := filepath.Join(dir, "sessions", id)
	if err := os.MkdirAll(sess, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(sess, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// v1Fixture reads the committed v1 session files.
func v1Fixture(t testing.TB) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, name := range []string{snapFile, walFile} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1session", name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	return files
}

// loadOnce opens a store on dir, runs LoadAll, and closes it again.
func loadOnce(t *testing.T, dir string) ([]Saved, error) {
	t.Helper()
	d := openDisk(t, dir, false)
	defer d.Close()
	return d.LoadAll()
}

// requirePureV2 fails unless sess holds only v2 files: no snap.json,
// no temporary file, and a WAL that is empty or opens with the magic.
func requirePureV2(t *testing.T, sess string) {
	t.Helper()
	entries, err := os.ReadDir(sess)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != snapBinFile && e.Name() != walFile {
			t.Fatalf("%s left in an upgraded directory", e.Name())
		}
	}
	wal, err := os.ReadFile(filepath.Join(sess, walFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	if len(wal) > 0 && !bytes.HasPrefix(wal, []byte(walMagic)) {
		t.Fatalf("upgraded wal is not v2: % x", wal[:min(len(wal), 8)])
	}
}

// TestDiskV1FixtureUpgrade pins the v1 JSON on-disk format with a
// committed fixture: a directory written by a pre-v2 build loads
// exactly, is pure v2 as soon as LoadAll returns (before any append or
// snapshot), and reloads to an identical []Saved.
func TestDiskV1FixtureUpgrade(t *testing.T) {
	dir := t.TempDir()
	const id = "s0001"
	sess := writeSession(t, dir, id, v1Fixture(t))

	saved, err := loadOnce(t, dir)
	if err != nil {
		t.Fatalf("loading v1 fixture: %v", err)
	}
	if len(saved) != 1 {
		t.Fatalf("LoadAll = %+v", saved)
	}
	sv := saved[0]
	if sv.Snapshot == nil || sv.Snapshot.Seq != 2 || sv.Snapshot.Strategy != "greedy" ||
		sv.Snapshot.Seed != 7 || len(sv.Snapshot.Typing) != 2 || len(sv.Snapshot.Skips) != 1 ||
		string(sv.Snapshot.Session) != `{"v":1,"name":"v1-fixture"}` {
		t.Fatalf("v1 snapshot decoded as %+v", sv.Snapshot)
	}
	if len(sv.Events) != 4 || sv.Events[0].Op != OpLabel || sv.Events[0].Seq != 3 ||
		sv.Events[2].Op != OpAppend || len(sv.Events[2].Rows) != 2 || sv.Events[3].Op != OpClear {
		t.Fatalf("v1 events decoded as %+v", sv.Events)
	}
	requirePureV2(t, sess)
	if _, err := os.Stat(filepath.Join(sess, snapBinFile)); err != nil {
		t.Fatalf("snap.bin missing after upgrade: %v", err)
	}

	again, err := loadOnce(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, saved) {
		t.Fatalf("reload after upgrade = %+v, want %+v", again, saved)
	}
}

// TestUpgradeV1InterruptedStates builds every directory an upgrade can
// be interrupted in — each mix of snap.json / snap.bin with a v1, v2 or
// no WAL, a lingering snap.json beside snap.bin among them, and a
// temporary file left by a crash mid-write — and requires each to load
// to the upgraded fixture's []Saved (without events when there is no
// WAL) and leave a pure v2 directory.
func TestUpgradeV1InterruptedStates(t *testing.T) {
	const id = "s0001"
	v1 := v1Fixture(t)
	ref := t.TempDir()
	refSess := writeSession(t, ref, id, v1)
	want, err := loadOnce(t, ref)
	if err != nil {
		t.Fatal(err)
	}
	v2 := map[string][]byte{}
	for _, name := range []string{snapBinFile, walFile} {
		if v2[name], err = os.ReadFile(filepath.Join(refSess, name)); err != nil {
			t.Fatal(err)
		}
	}

	snaps := map[string][]string{
		"json":     {snapFile},
		"json+bin": {snapFile, snapBinFile},
		"bin":      {snapBinFile},
	}
	for snapName, snapFiles := range snaps {
		for walName, wal := range map[string][]byte{"v1wal": v1[walFile], "v2wal": v2[walFile], "nowal": nil} {
			t.Run(snapName+"/"+walName, func(t *testing.T) {
				want := want
				if wal == nil {
					want = []Saved{{ID: id, Snapshot: want[0].Snapshot}}
				}
				files := map[string][]byte{walFile: wal, walFile + ".tmp": []byte("torn"), snapBinFile + ".tmp": []byte("torn")}
				for _, name := range snapFiles {
					files[name] = v1[name]
					if name == snapBinFile {
						files[name] = v2[name]
					}
				}
				dir := t.TempDir()
				sess := writeSession(t, dir, id, files)
				for pass := 0; pass < 2; pass++ {
					got, err := loadOnce(t, dir)
					if err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("pass %d: loaded %+v, want %+v", pass, got, want)
					}
					for _, name := range []string{walFile + ".tmp", snapBinFile + ".tmp"} {
						if _, err := os.Lstat(filepath.Join(sess, name)); !errors.Is(err, os.ErrNotExist) {
							t.Fatalf("pass %d: stale %s survived LoadAll (%v)", pass, name, err)
						}
					}
					requirePureV2(t, sess)
				}
			})
		}
	}
}

// TestLoadAllRemovesStaleTemps plants the temporary files a crash
// inside replaceFile leaves (snap.bin.tmp and wal.log.tmp) in a v2 and
// in a v1 session directory: LoadAll removes them, and each session
// loads as it does without them.
func TestLoadAllRemovesStaleTemps(t *testing.T) {
	src := t.TempDir()
	d := openDisk(t, src, false)
	if _, err := d.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot("s0002", Snapshot{Strategy: "random", Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvent("s0002", Event{Op: OpClear}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	v2 := map[string][]byte{}
	for _, name := range []string{snapBinFile, walFile} {
		data, err := os.ReadFile(filepath.Join(src, "sessions", "s0002", name))
		if err != nil {
			t.Fatal(err)
		}
		v2[name] = data
	}
	sessions := map[string]map[string][]byte{"s0001": v1Fixture(t), "s0002": v2}

	ref := t.TempDir()
	for id, files := range sessions {
		writeSession(t, ref, id, files)
	}
	want, err := loadOnce(t, ref)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	temps := []string{snapBinFile + ".tmp", walFile + ".tmp"}
	for id, files := range sessions {
		planted := maps.Clone(files)
		for _, name := range temps {
			planted[name] = []byte("torn")
		}
		writeSession(t, dir, id, planted)
	}
	got, err := loadOnce(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	for id := range sessions {
		for _, name := range temps {
			if _, err := os.Lstat(filepath.Join(dir, "sessions", id, name)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("session %s: stale %s survived LoadAll (%v)", id, name, err)
			}
		}
		requirePureV2(t, filepath.Join(dir, "sessions", id))
	}
}

// TestUpgradeV1KeepsNewerSnapBin: a snap.json an older build failed to
// remove after writing a newer snap.bin is stale; the upgrade deletes
// it rather than converting it over the newer snapshot.
func TestUpgradeV1KeepsNewerSnapBin(t *testing.T) {
	const id = "s0001"
	newer, _ := appendSnapshotFile(nil, nil, Snapshot{Seq: 9, Strategy: "random"})
	dir := t.TempDir()
	sess := writeSession(t, dir, id, map[string][]byte{snapFile: v1Fixture(t)[snapFile], snapBinFile: newer})
	saved, err := loadOnce(t, dir)
	if err != nil || len(saved) != 1 || saved[0].Snapshot == nil || saved[0].Snapshot.Seq != 9 {
		t.Fatalf("LoadAll = %+v, %v; want the newer snap.bin", saved, err)
	}
	requirePureV2(t, sess)
}

// TestUpgradeV1SyncsWithoutFsync holds the upgrade to its own
// durability: it syncs directories even with Fsync off, and a failed
// sync makes the session a poisoned casualty that the next LoadAll
// upgrades to the same session.
func TestUpgradeV1SyncsWithoutFsync(t *testing.T) {
	const id = "s0001"
	ref := t.TempDir()
	writeSession(t, ref, id, v1Fixture(t))
	want, err := loadOnce(t, ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeSession(t, dir, id, v1Fixture(t))
	boom := errors.New("injected dir sync failure")
	d := openDisk(t, dir, false)
	d.syncDir = func(string) error { return boom }
	saved, err := d.LoadAll()
	if !errors.Is(err, boom) || !reflect.DeepEqual(saved, []Saved{{ID: id}}) {
		t.Fatalf("LoadAll with failing dir sync = %+v, %v; want a bare casualty", saved, err)
	}
	if err := d.AppendEvent(id, Event{Op: OpClear}); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on failed upgrade = %v, want poisoned refusal", err)
	}
	d.Close()

	synced := 0
	d = openDisk(t, dir, false)
	d.syncDir = func(path string) error { synced++; return fsyncDir(path) }
	saved, err = d.LoadAll()
	d.Close()
	if err != nil || !reflect.DeepEqual(saved, want) {
		t.Fatalf("retried upgrade = %+v, %v; want %+v", saved, err, want)
	}
	if synced == 0 {
		t.Fatal("upgrade with Fsync off synced no directory")
	}
}

// TestDiskDirSyncFailureFailsWrites: with Fsync, a directory entry that
// did not reach disk fails the write that created it — the first
// append to a new session's log and the first snapshot of a new
// session — rather than acking into a log that may vanish.
func TestDiskDirSyncFailureFailsWrites(t *testing.T) {
	d := openDisk(t, t.TempDir(), true)
	defer d.Close()
	if _, err := d.LoadAll(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected dir sync failure")
	d.syncDir = func(string) error { return boom }
	if err := d.AppendEvent("s0001", Event{Op: OpClear}); !errors.Is(err, boom) {
		t.Fatalf("append with failing dir sync = %v, want the injected failure", err)
	}
	if err := d.Snapshot("s0002", Snapshot{}); !errors.Is(err, boom) {
		t.Fatalf("first snapshot with failing dir sync = %v, want the injected failure", err)
	}
	// Nothing was cached on failure: with syncs working again both
	// sessions write.
	d.syncDir = fsyncDir
	if err := d.AppendEvent("s0001", Event{Op: OpClear}); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot("s0002", Snapshot{}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUpgradeV1 runs LoadAll over arbitrary snap.json and wal.log
// bytes. It must never panic; a session that loads leaves a pure v2
// directory that reloads to the same []Saved, and any other session is
// a reported casualty, bare and poisoned. The seeds are the committed
// corpus (testdata/fuzz/FuzzUpgradeV1): the v1session fixture, a torn
// final line, a wrong-shape line mid-file, and an empty WAL.
func FuzzUpgradeV1(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapJSON, wal []byte) {
		const id = "s0001"
		dir := t.TempDir()
		sess := writeSession(t, dir, id, map[string][]byte{snapFile: snapJSON, walFile: wal})
		d := openDisk(t, dir, false)
		saved, err := d.LoadAll()
		if err != nil {
			aerr := d.AppendEvent(id, Event{Op: OpClear})
			d.Close()
			if !reflect.DeepEqual(saved, []Saved{{ID: id}}) {
				t.Fatalf("casualty reported as %+v (%v)", saved, err)
			}
			if aerr == nil || !strings.Contains(aerr.Error(), "poisoned") {
				t.Fatalf("append on casualty = %v, want poisoned refusal", aerr)
			}
			return
		}
		d.Close()
		requirePureV2(t, sess)
		again, err := loadOnce(t, dir)
		if err != nil || !reflect.DeepEqual(again, saved) {
			t.Fatalf("reload = %+v, %v; want %+v", again, err, saved)
		}
	})
}
