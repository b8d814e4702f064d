package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
)

func TestEventPayloadRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Op: OpLabel, Index: 0, Label: "+"},
		{Seq: 2, Op: OpLabel, Index: 12345, Label: "-"},
		{Seq: 3, Op: OpSkip, Index: 7},
		{Seq: 4, Op: OpAppend, Rows: [][]string{{"1", "a"}, {"2", ""}}},
		{Seq: 5, Op: OpAppend, Rows: [][]string{}},
		{Seq: 1 << 40, Op: OpClear},
	}
	for _, want := range events {
		payload, err := AppendEventPayload(nil, want)
		if err != nil {
			t.Fatalf("%+v: encode: %v", want, err)
		}
		// The v2 record (CRC frame) must undercut the v1 JSON line that
		// held the same event.
		v1, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if frame := codec.AppendFrame(nil, payload); len(frame) >= len(v1)+1 {
			t.Errorf("%+v: v2 frame %d bytes, v1 line %d", want, len(frame), len(v1)+1)
		}
		got, err := DecodeEventPayload(payload)
		if err != nil {
			t.Fatalf("%+v: decode: %v", want, err)
		}
		// An empty rows slice and nil decode the same; normalize.
		if len(want.Rows) == 0 {
			want.Rows = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestEventPayloadRejects(t *testing.T) {
	if _, err := AppendEventPayload(nil, Event{Op: OpLabel, Index: -1, Label: "+"}); err == nil {
		t.Fatal("negative index encoded")
	}
	if _, err := AppendEventPayload(nil, Event{Op: Op("bogus")}); err == nil {
		t.Fatal("unknown op encoded")
	}
	if _, err := AppendEventPayload(nil, Event{Op: OpLabel, Index: 1, Label: "?"}); err == nil {
		t.Fatal("label other than + or - encoded")
	}
	if _, err := DecodeEventPayload([]byte{}); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("empty payload err = %v", err)
	}
	payload, _ := AppendEventPayload(nil, Event{Seq: 1, Op: OpClear})
	if _, err := DecodeEventPayload(append(payload, 0)); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("trailing byte err = %v", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	want := Snapshot{
		Seq:       42,
		Strategy:  "greedy",
		Seed:      -99,
		CreatedAt: time.Unix(0, 1700000000123456789),
		Typing:    []string{"int", "str"},
		Skips:     []int{1, 5, 9},
		Session:   json.RawMessage(`{"v":2}`),
	}
	file, _ := appendSnapshotFile(nil, nil, want)
	got, err := decodeSnapshotFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.Equal(want.CreatedAt) {
		t.Fatalf("created_at = %v, want %v", got.CreatedAt, want.CreatedAt)
	}
	got.CreatedAt, want.CreatedAt = time.Time{}, time.Time{}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("round trip: got %+v, want %+v", *got, want)
	}

	// The zero snapshot round-trips too (zero time stays zero).
	file, _ = appendSnapshotFile(file, nil, Snapshot{})
	zero, err := decodeSnapshotFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !zero.CreatedAt.IsZero() {
		t.Fatalf("zero created_at decoded as %v", zero.CreatedAt)
	}

	// Corruption is a hard error, never a silent partial snapshot.
	file, _ = appendSnapshotFile(file, nil, want)
	file[len(file)-1] ^= 0x01
	if _, err := decodeSnapshotFile(file); !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("bit flip err = %v, want ErrChecksum", err)
	}
	if _, err := decodeSnapshotFile([]byte("{}")); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("json file err = %v, want ErrMalformed", err)
	}
}

// TestDiskV2WALTornTail cuts a binary WAL at every byte offset: each
// prefix must recover cleanly (no error) to exactly the events whose
// frames fully survived — the crash-mid-append contract.
func TestDiskV2WALTornTail(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	const id = "s0001"
	if err := d.Snapshot(id, Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Op: OpLabel, Index: 3, Label: "+"},
		{Op: OpSkip, Index: 8},
		{Op: OpAppend, Rows: [][]string{{"10", "x"}}},
	}
	for _, ev := range events {
		if err := d.AppendEvent(id, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "sessions", id, walFile)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(full, []byte(walMagic)) {
		t.Fatalf("wal does not open with the v2 magic: % x", full[:8])
	}

	// Frame boundaries, to know how many events each cut preserves.
	var bounds []int // bounds[i] = offset after frame i
	rest := full[len(walMagic):]
	for len(rest) > 0 {
		_, r, err := codec.ReadFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, len(full)-len(r))
		rest = r
	}
	if len(bounds) != len(events) {
		t.Fatalf("%d frames, want %d", len(bounds), len(events))
	}

	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d2 := openDisk(t, dir, false)
		saved, err := d2.LoadAll()
		d2.Close()
		if err != nil {
			t.Fatalf("cut at %d: LoadAll: %v", cut, err)
		}
		want := 0
		for _, b := range bounds {
			if cut >= b {
				want++
			}
		}
		if len(saved) != 1 || len(saved[0].Events) != want {
			t.Fatalf("cut at %d: recovered %d events, want %d", cut, len(saved[0].Events), want)
		}
	}
}

// TestDiskV2WALCorruption pins the CRC semantics: a bit flip in the
// FINAL frame reads as a torn tail (recover the prefix, no error); the
// same flip mid-file is corruption of acknowledged events and must
// surface as an error, not a silent truncation.
func TestDiskV2WALCorruption(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	const id = "s0001"
	if err := d.Snapshot(id, Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.AppendEvent(id, Event{Op: OpLabel, Index: i, Label: "+"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "sessions", id, walFile)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Flip the last byte (inside the final frame's payload): torn tail.
	torn := append([]byte(nil), full...)
	torn[len(torn)-1] ^= 0x01
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir, false)
	saved, err := d2.LoadAll()
	d2.Close()
	if err != nil {
		t.Fatalf("final-frame flip: LoadAll: %v", err)
	}
	if len(saved[0].Events) != 2 {
		t.Fatalf("final-frame flip: %d events, want 2", len(saved[0].Events))
	}

	// Flip a byte inside the FIRST frame: mid-file corruption, error.
	bad := append([]byte(nil), full...)
	bad[len(walMagic)+6] ^= 0x01
	if err := os.WriteFile(walPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	d3 := openDisk(t, dir, false)
	saved, err = d3.LoadAll()
	d3.Close()
	if err == nil || !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("mid-file flip: err = %v, want ErrChecksum", err)
	}
	if len(saved) != 1 || saved[0].Snapshot != nil {
		t.Fatalf("mid-file flip: corrupt session not reported bare: %+v", saved)
	}

	// Only a short read at the end of the file is a torn tail. A length
	// varint overflowing 64 bits after the intact frames is malformed.
	overflow := append(append([]byte(nil), full...), bytes.Repeat([]byte{0xff}, 9)...)
	overflow = append(overflow, 0x7f)
	if err := os.WriteFile(walPath, overflow, 0o644); err != nil {
		t.Fatal(err)
	}
	if saved, err = loadOnce(t, dir); !errors.Is(err, codec.ErrMalformed) || saved[0].Snapshot != nil {
		t.Fatalf("overflowing length: %+v, %v; want a bare ErrMalformed casualty", saved, err)
	}
	// A read error is surfaced, not read as the end of the log: a
	// wal.log that cannot be read (here a directory) is a casualty.
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(walPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if saved, err = loadOnce(t, dir); err == nil || saved[0].Snapshot != nil {
		t.Fatalf("unreadable wal: %+v, %v; want a bare casualty", saved, err)
	}
}

// TestDiskLoadAllPoisonsCasualty is the regression for the recovery
// guard: a session LoadAll could not read must refuse appends — a
// fabricated sequence number over an unreadable directory would bury
// acknowledged events — until a snapshot rebuilds it.
func TestDiskLoadAllPoisonsCasualty(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, false)
	for _, id := range []string{"s0001", "s0002"} {
		if err := d.Snapshot(id, Snapshot{Session: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sessions", "s0002", snapBinFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDisk(DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.LoadAll(); err == nil {
		t.Fatal("corrupt session reported no error")
	}
	// The casualty is sealed; its healthy neighbor is not.
	if err := d2.AppendEvent("s0002", Event{Op: OpLabel, Index: 0, Label: "+"}); err == nil ||
		!strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on casualty = %v, want poisoned refusal", err)
	}
	if err := d2.AppendEvent("s0001", Event{Op: OpLabel, Index: 0, Label: "+"}); err != nil {
		t.Fatalf("append on healthy neighbor: %v", err)
	}
	// A snapshot rebuilds the casualty from scratch and reopens it.
	if err := d2.Snapshot("s0002", Snapshot{Session: json.RawMessage(`{"v":9}`)}); err != nil {
		t.Fatalf("repairing snapshot: %v", err)
	}
	if err := d2.AppendEvent("s0002", Event{Op: OpLabel, Index: 1, Label: "-"}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

// TestWALAppendEncodeZeroAlloc pins the hot append path's encode —
// payload plus CRC frame out of a reused encState — at zero
// allocations per event. CI runs this next to the other zero-alloc
// guards.
func TestWALAppendEncodeZeroAlloc(t *testing.T) {
	events := []Event{
		{Seq: 900001, Op: OpLabel, Index: 12345, Label: "+"},
		{Seq: 900002, Op: OpSkip, Index: 7},
		{Seq: 900003, Op: OpClear},
	}
	es := &encState{}
	for _, ev := range events {
		ev := ev
		if n := testing.AllocsPerRun(200, func() {
			var err error
			es.payload, err = AppendEventPayload(es.payload[:0], ev)
			if err != nil {
				t.Fatal(err)
			}
			es.frame = codec.AppendFrame(es.frame[:0], es.payload)
		}); n != 0 {
			t.Fatalf("op %s: append encode allocates %.1f/op, want 0", ev.Op, n)
		}
	}
}

func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range []Event{
		{Seq: 1, Op: OpLabel, Index: 3, Label: "+"},
		{Seq: 2, Op: OpSkip, Index: 0},
		{Seq: 3, Op: OpAppend, Rows: [][]string{{"1", "a"}}},
		{Seq: 4, Op: OpClear},
	} {
		payload, err := AppendEventPayload(nil, ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Must never panic; on success the event must re-encode.
		ev, err := DecodeEventPayload(payload)
		if err != nil {
			return
		}
		if _, err := AppendEventPayload(nil, ev); err != nil {
			t.Fatalf("decoded event does not re-encode: %+v: %v", ev, err)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	good, _ := appendSnapshotFile(nil, nil, Snapshot{
		Seq: 9, Strategy: "greedy", Seed: -1, Typing: []string{"int"},
		Skips: []int{2}, Session: json.RawMessage(`{"v":1}`),
	})
	f.Add(append([]byte(nil), good...))
	empty, _ := appendSnapshotFile(nil, nil, Snapshot{})
	f.Add(append([]byte(nil), empty...))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic, and a decodable snapshot must round-trip.
		snap, err := decodeSnapshotFile(data)
		if err != nil {
			return
		}
		file, _ := appendSnapshotFile(nil, nil, *snap)
		if _, err := decodeSnapshotFile(file); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
	})
}
