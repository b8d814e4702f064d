package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/codec"
)

// Format v1, the JSON layout before v2 (a snap.json document, one JSON
// event per wal.log line), is known to this file alone: LoadAll
// rewrites a v1 directory in v2 before anything else reads it.
const snapFile = "snap.json"

// errV1WAL is readWAL's report of a wal.log in format v1.
var errV1WAL = errors.New("wal is format v1")

// loadOrUpgrade is loadSession for LoadAll: a directory that still
// holds a v1 file is upgraded in place first, and stale temporary
// files go. Beyond the files loadSession reads, a v2 directory costs
// one lstat of snap.json and two removes.
func (c *committer) loadOrUpgrade(id string) (Saved, error) {
	dir := c.sessionDir(id)
	if err := removeStaleTemps(dir); err != nil {
		return Saved{ID: id}, err
	}
	sv, err := c.loadSession(id)
	if err == nil {
		if _, err := os.Lstat(filepath.Join(dir, snapFile)); errors.Is(err, os.ErrNotExist) {
			return sv, nil
		}
	} else if !errors.Is(err, errV1WAL) {
		return sv, err
	}
	if err := c.upgradeV1(dir, sv.Snapshot != nil); err != nil {
		return Saved{ID: id}, fmt.Errorf("upgrading from v1: %w", err)
	}
	return c.loadSession(id)
}

// upgradeV1 rewrites one session directory in format v2. A v1 file
// that does not convert fails it before anything is written. Then
// snap.json becomes snap.bin (unless hasBin: loadSession read a newer
// snap.bin that shadows it), a v1 wal.log becomes the magic plus one
// frame per event with unchanged sequence numbers, and snap.json goes.
// Each write is an fsynced replaceFile whatever the Fsync option, as it
// replaces bytes that may already be durable. Until snap.json is gone
// a crash leaves a directory the next LoadAll upgrades to the same
// session.
func (c *committer) upgradeV1(dir string, hasBin bool) error {
	snapPath := filepath.Join(dir, snapFile)
	walPath := filepath.Join(dir, walFile)
	var snapBin, walBin []byte
	data, err := os.ReadFile(snapPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err == nil && !hasBin {
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("decoding snapshot: %w", err)
		}
		snapBin, _ = appendSnapshotFile(nil, nil, snap)
		if _, err := decodeSnapshotFile(snapBin); err != nil {
			return fmt.Errorf("converting snapshot: %w", err)
		}
	}
	data, err = os.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if !walIsV2(data) {
		events, err := readWALV1(data)
		if err != nil {
			return err
		}
		walBin = []byte(walMagic)
		for _, ev := range events {
			payload, err := AppendEventPayload(nil, ev)
			if err != nil {
				return fmt.Errorf("converting wal event %d: %w", ev.Seq, err)
			}
			walBin = codec.AppendFrame(walBin, payload)
		}
	}
	if snapBin != nil {
		if err := c.d.replaceFile(filepath.Join(dir, snapBinFile), snapBin, true); err != nil {
			return err
		}
	}
	if walBin != nil {
		if err := c.d.replaceFile(walPath, walBin, true); err != nil {
			return err
		}
	}
	// Unsynced: a snap.json back after a crash goes at the next LoadAll.
	if err := os.Remove(snapPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// readWALV1 decodes a v1 log as a stream of JSON events (no line size
// ceiling). A torn final record, a syntax error or unexpected EOF,
// ends the log.
func readWALV1(data []byte) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var ev Event
		err := dec.Decode(&ev)
		var syn *json.SyntaxError
		switch {
		case err == nil:
			out = append(out, ev)
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.As(err, &syn):
			return out, nil // the end, or a torn tail after what precedes it
		default:
			// Valid JSON of the wrong shape is no torn tail: surface it
			// rather than silently lose the acknowledged events after it.
			return out, fmt.Errorf("reading v1 wal: %w", err)
		}
	}
}
