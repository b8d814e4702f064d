package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/values"
)

// tagBuiltAppendEvent is the reference append event: one Tag() string
// per cell and one row slice per tuple.
func tagBuiltAppendEvent(tuples []jim.Tuple) store.Event {
	rows := make([][]string, len(tuples))
	for i, t := range tuples {
		row := make([]string, len(t))
		for c, v := range t {
			row[c] = v.Tag()
		}
		rows[i] = row
	}
	return store.Event{Op: store.OpAppend, Rows: rows}
}

// TestAppendEventBytesMatchTagBuilt holds the batch-tagged append event
// to the per-cell Tag() construction: same rows, and byte-identical
// binary payloads (the v2 WAL record and the replication frame body
// share this encoding) and JSON lines (the v1 WAL format), so durable
// and shipped appends are unchanged on the wire and on disk.
func TestAppendEventBytesMatchTagBuilt(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pool := []jim.Value{
		values.Null(), values.Bool(true), values.Int(-7), values.Int(math.MaxInt64),
		values.Float(2.5), values.Float(math.NaN()), values.Float(math.Copysign(0, -1)),
		values.Str(""), values.Str("Paris"), values.Str("a,\"b\"\nc"), values.Str("ünï ✓"),
	}
	for trial := 0; trial < 50; trial++ {
		width := 1 + r.Intn(7)
		tuples := make([]jim.Tuple, 1+r.Intn(40))
		for i := range tuples {
			tu := make(jim.Tuple, width)
			for c := range tu {
				if r.Intn(3) == 0 {
					tu[c] = values.Int(r.Int63n(1 << 40))
				} else {
					tu[c] = pool[r.Intn(len(pool))]
				}
			}
			tuples[i] = tu
		}
		b, err := relation.BatchOf(width, tuples)
		if err != nil {
			t.Fatal(err)
		}
		got, want := appendEvent(b), tagBuiltAppendEvent(tuples)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: appendEvent rows %q, want %q", trial, got.Rows, want.Rows)
		}
		got.Seq, want.Seq = uint64(trial+1), uint64(trial+1)
		gotBin, err := store.AppendEventPayload(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		wantBin, err := store.AppendEventPayload(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBin, wantBin) {
			t.Fatalf("trial %d: binary payload differs:\n got %x\nwant %x", trial, gotBin, wantBin)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("trial %d: JSON line differs:\n got %s\nwant %s", trial, gotJSON, wantJSON)
		}
		// Rows never alias: growing one row must not write into the next.
		if len(got.Rows) > 1 {
			next := got.Rows[1][0]
			_ = append(got.Rows[0], "x")
			if got.Rows[1][0] != next {
				t.Fatalf("trial %d: appending to row 0 overwrote row 1", trial)
			}
		}
	}
}
