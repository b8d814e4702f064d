package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
)

// On-disk format v2: length-prefixed, CRC32C-framed binary records
// built on the internal/codec primitives the wire protocol already
// uses. The WAL is a 4-byte magic followed by one frame per event;
// the snapshot is the same magic discipline around a single frame.
// Format v1 (JSON lines / snap.json) is read only by LoadAll's one-way
// upgrade (upgrade.go). OPERATIONS.md documents the layout and the
// operational meaning of a CRC failure.
//
// What v2 buys over the JSON format it replaces:
//
//   - The append encode path is allocation-free steady-state (the
//     committer reuses per-commit encode buffers), where
//     encoding/json allocated on every acknowledged mutation.
//   - Torn-tail detection is structural — a short frame or a CRC
//     mismatch at the log's end — instead of "JSON syntax error", and
//     the CRC also catches mid-file bit corruption that a JSON scan
//     would silently tolerate or misparse.
//   - Records are a fraction of the JSON size (no field names, no
//     base-10 integers), which shrinks both fsync payloads and the
//     bytes recovery must replay.
//
// The cluster replication stream ("shipping", internal/cluster) reuses
// the exact payload encodings below, minus file magic and CRC framing
// — the transport adds its own length-prefixed frames, and TCP already
// checksums the path. Sharing the encoders keeps a shipped event
// byte-identical to the WAL record the owner committed, which is what
// makes the follower proposal-exact after promotion.

// File magics. Exactly 4 bytes each; a v1 file can never start with
// them (JSON opens with '{').
const (
	walMagic  = "JWA2"
	snapMagic = "JSN2"
)

// FormatV2 names the on-disk format for /stats and reports.
const FormatV2 = "v2"

// Event op bytes. Values are part of the on-disk contract.
const (
	opByteLabel  = 1
	opByteSkip   = 2
	opByteAppend = 3
	opByteClear  = 4
)

// AppendEventPayload encodes one event into dst (without framing) and
// returns the extended slice. Allocation-free once dst has capacity.
func AppendEventPayload(dst []byte, ev Event) ([]byte, error) {
	dst = binary.AppendUvarint(dst, ev.Seq)
	switch ev.Op {
	case OpLabel:
		if ev.Index < 0 {
			return dst, fmt.Errorf("store: negative label index %d", ev.Index)
		}
		dst = append(dst, opByteLabel)
		dst = binary.AppendUvarint(dst, uint64(ev.Index))
		switch ev.Label {
		case "+":
			dst = append(dst, 1)
		case "-":
			dst = append(dst, 0)
		default:
			return dst, fmt.Errorf("store: label %q is neither + nor -", ev.Label)
		}
	case OpSkip:
		if ev.Index < 0 {
			return dst, fmt.Errorf("store: negative skip index %d", ev.Index)
		}
		dst = append(dst, opByteSkip)
		dst = binary.AppendUvarint(dst, uint64(ev.Index))
	case OpAppend:
		dst = append(dst, opByteAppend)
		dst = binary.AppendUvarint(dst, uint64(len(ev.Rows)))
		for _, row := range ev.Rows {
			dst = binary.AppendUvarint(dst, uint64(len(row)))
			for _, cell := range row {
				dst = codec.AppendString(dst, cell)
			}
		}
	case OpClear:
		dst = append(dst, opByteClear)
	default:
		return dst, fmt.Errorf("store: cannot encode op %q", ev.Op)
	}
	return dst, nil
}

// DecodeEventPayload decodes a payload produced by AppendEventPayload.
// A WAL frame's payload has already passed its CRC, so any failure
// here is a hard format error (an encoder bug or deliberate
// corruption), never a torn tail.
func DecodeEventPayload(payload []byte) (Event, error) {
	var ev Event
	c := codec.Cursor{B: payload}
	seq, err := c.Uvarint()
	if err != nil {
		return ev, err
	}
	ev.Seq = seq
	op, err := c.Byte()
	if err != nil {
		return ev, err
	}
	switch op {
	case opByteLabel:
		ev.Op = OpLabel
		if ev.Index, err = c.Sint(); err != nil {
			return ev, err
		}
		lb, err := c.Byte()
		if err != nil {
			return ev, err
		}
		switch lb {
		case 0:
			ev.Label = "-"
		case 1:
			ev.Label = "+"
		default:
			return ev, fmt.Errorf("%w: unknown label byte %d", codec.ErrMalformed, lb)
		}
	case opByteSkip:
		ev.Op = OpSkip
		if ev.Index, err = c.Sint(); err != nil {
			return ev, err
		}
	case opByteAppend:
		ev.Op = OpAppend
		nrows, err := c.Count(1)
		if err != nil {
			return ev, err
		}
		var rows [][]string
		if nrows > 0 {
			rows = make([][]string, 0, nrows)
		}
		for i := 0; i < nrows; i++ {
			ncells, err := c.Count(1)
			if err != nil {
				return ev, err
			}
			row := make([]string, 0, ncells)
			for j := 0; j < ncells; j++ {
				cell, err := c.Str()
				if err != nil {
					return ev, err
				}
				row = append(row, cell)
			}
			rows = append(rows, row)
		}
		ev.Rows = rows
	case opByteClear:
		ev.Op = OpClear
	default:
		return ev, fmt.Errorf("%w: unknown op byte %d", codec.ErrMalformed, op)
	}
	return ev, c.Done()
}

// AppendSnapshotPayload encodes the snapshot envelope (without magic
// or CRC framing) into payload and returns the extended slice.
func AppendSnapshotPayload(payload []byte, snap Snapshot) []byte {
	payload = binary.AppendUvarint(payload, snap.Seq)
	payload = codec.AppendString(payload, snap.Strategy)
	payload = binary.AppendVarint(payload, snap.Seed)
	var nanos int64
	if !snap.CreatedAt.IsZero() {
		nanos = snap.CreatedAt.UnixNano()
	}
	payload = binary.AppendVarint(payload, nanos)
	payload = binary.AppendUvarint(payload, uint64(len(snap.Typing)))
	for _, t := range snap.Typing {
		payload = codec.AppendString(payload, t)
	}
	payload = binary.AppendUvarint(payload, uint64(len(snap.Skips)))
	for _, i := range snap.Skips {
		payload = binary.AppendUvarint(payload, uint64(i))
	}
	payload = binary.AppendUvarint(payload, uint64(len(snap.Session)))
	payload = append(payload, snap.Session...)
	return payload
}

// DecodeSnapshotPayload decodes a payload produced by
// AppendSnapshotPayload.
func DecodeSnapshotPayload(payload []byte) (*Snapshot, error) {
	snap := &Snapshot{}
	c := codec.Cursor{B: payload}
	var err error
	if snap.Seq, err = c.Uvarint(); err != nil {
		return nil, err
	}
	if snap.Strategy, err = c.Str(); err != nil {
		return nil, err
	}
	if snap.Seed, err = c.Varint(); err != nil {
		return nil, err
	}
	nanos, err := c.Varint()
	if err != nil {
		return nil, err
	}
	if nanos != 0 {
		snap.CreatedAt = time.Unix(0, nanos)
	}
	ntyping, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	if ntyping > 0 {
		snap.Typing = make([]string, 0, ntyping)
		for i := 0; i < ntyping; i++ {
			t, err := c.Str()
			if err != nil {
				return nil, err
			}
			snap.Typing = append(snap.Typing, t)
		}
	}
	nskips, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	if nskips > 0 {
		snap.Skips = make([]int, 0, nskips)
		for i := 0; i < nskips; i++ {
			idx, err := c.Sint()
			if err != nil {
				return nil, err
			}
			snap.Skips = append(snap.Skips, idx)
		}
	}
	session, err := c.Bytes()
	if err != nil {
		return nil, err
	}
	if len(session) > 0 {
		snap.Session = append(snap.Session[:0], session...)
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("snapshot payload: %w", err)
	}
	return snap, nil
}

// appendSnapshotFile encodes a complete v2 snapshot file into dst:
// magic, then one CRC frame around the envelope payload. payload is a
// scratch slice reused across calls.
func appendSnapshotFile(dst, payload []byte, snap Snapshot) (file, scratch []byte) {
	payload = AppendSnapshotPayload(payload[:0], snap)
	dst = append(dst[:0], snapMagic...)
	dst = codec.AppendFrame(dst, payload)
	return dst, payload
}

// decodeSnapshotFile decodes a v2 snapshot file (magic + one frame).
// The caller has already sniffed the magic; failures are hard errors
// — a snapshot is written atomically, so unlike the WAL it has no
// torn-tail tolerance: a bad frame means the file is corrupt.
func decodeSnapshotFile(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: missing snapshot magic", codec.ErrMalformed)
	}
	payload, rest, err := codec.ReadFrame(data[len(snapMagic):])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot frame", codec.ErrMalformed, len(rest))
	}
	return DecodeSnapshotPayload(payload)
}

// decodeWAL decodes the frames that follow a v2 WAL's magic. A frame
// cut short by the end of the file, or the FINAL frame failing its CRC
// (the length landed, part of the payload did not), is a torn tail that
// ends the log cleanly: the log is append-only and failed writes are
// truncated away. A CRC failure with frames following (mid-file
// corruption) or a length overflowing 64 bits is no torn write and
// fails rather than silently dropping acknowledged events.
func decodeWAL(frames []byte) ([]Event, error) {
	var out []Event
	for len(frames) > 0 {
		payload, rest, err := codec.ReadFrame(frames)
		if errors.Is(err, codec.ErrChecksum) {
			if n, w := binary.Uvarint(frames); uint64(len(frames)-w-4) == n {
				return out, nil // torn final frame
			}
		}
		if errors.Is(err, codec.ErrTruncated) {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("wal frame starting %d bytes before the end: %w", len(frames), err)
		}
		ev, err := DecodeEventPayload(payload)
		if err != nil {
			// CRC passed, so the bytes are what was written: a format
			// error, not a torn tail.
			return out, fmt.Errorf("decoding wal event: %w", err)
		}
		out = append(out, ev)
		frames = rest
	}
	return out, nil
}
