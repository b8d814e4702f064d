package store

import (
	"encoding/json"
	"fmt"
	"time"
)

// Op names the kind of one durable session mutation.
type Op string

// The mutating operations a session WAL records. Proposals (next/topk)
// are not logged — they are pure functions of the state for every
// shipped strategy, so recovery re-derives them — with one exception:
// a proposal that finds every informative class skipped clears the
// skip set to start a re-offer round, and that clear is recorded as
// OpClear so replayed skips land on the same set the live session had.
const (
	// OpLabel is an accepted explicit label ("+" or "-").
	OpLabel Op = "label"
	// OpSkip is a deferred signature class ("I don't know").
	OpSkip Op = "skip"
	// OpAppend is a batch of tuples streamed into the instance.
	OpAppend Op = "append"
	// OpClear is a re-offer round: the skip set was cleared by a
	// proposal that found everything informative skipped.
	OpClear Op = "clear"
)

// Event is one durable session mutation — one frame of the WAL,
// recorded after the in-memory apply succeeded and replayed through
// the same session methods on recovery.
type Event struct {
	// Seq is the store-assigned per-session sequence number, starting
	// at 1. Callers leave it zero on AppendEvent; LoadAll returns only
	// events newer than the snapshot they follow.
	Seq uint64 `json:"seq,omitempty"`
	Op  Op     `json:"op"`
	// Index is the tuple index of a label or skip.
	Index int `json:"index,omitempty"`
	// Label is "+" or "-" for OpLabel.
	Label string `json:"label,omitempty"`
	// Rows carries an OpAppend batch with tagged-value cells
	// (values.Tag), the session-format-v2 row encoding, so replay never
	// re-infers cell kinds.
	Rows [][]string `json:"rows,omitempty"`
}

// Snapshot is the durable full state of one session: the
// session-format-v2 file plus the run configuration the file format
// does not record. Writing a snapshot truncates the session's WAL —
// everything up to Seq is folded in.
type Snapshot struct {
	// Seq is the sequence number of the last event reflected in this
	// snapshot. Callers leave it zero on Store.Snapshot; the store
	// stamps its current per-session sequence.
	Seq uint64 `json:"seq,omitempty"`
	// Strategy is the session's strategy name, restored on recovery.
	Strategy string `json:"strategy,omitempty"`
	// Seed is the strategy seed the session was created with.
	Seed int64 `json:"seed,omitempty"`
	// CreatedAt is the original session creation time.
	CreatedAt time.Time `json:"created_at,omitempty"`
	// Typing is the pinned per-column arrival typing as annotation
	// strings (relation.Typing.Annotations); empty means all-inference.
	Typing []string `json:"typing,omitempty"`
	// Skips holds one unlabeled tuple index per signature class the
	// user had skipped at snapshot time, replayed through Session.Skip
	// on recovery so proposal routing resumes identically.
	Skips []int `json:"skips,omitempty"`
	// Session is the session-format-v2 file (internal/session): the
	// instance with tagged values, base-row count, and explicit labels.
	Session json.RawMessage `json:"session"`
}

// Saved is one session's durable state as LoadAll returns it: the
// newest snapshot and the WAL events appended after it, in order.
type Saved struct {
	ID       string
	Snapshot *Snapshot
	// Events holds the WAL suffix with Seq > Snapshot.Seq; replaying
	// them on top of the snapshot reproduces the pre-crash state.
	Events []Event
}

// Store is the session durability contract. Implementations must be
// safe for concurrent use; per-session ordering is the caller's
// responsibility (the HTTP layer holds the session write lock across
// the in-memory apply and the AppendEvent that records it).
type Store interface {
	// Name identifies the backend ("mem" or "disk") for /stats.
	Name() string
	// AppendEvent durably logs one mutation of session id; it returns
	// only once the event would survive a process crash (subject to the
	// backend's fsync policy). The store assigns ev.Seq.
	AppendEvent(id string, ev Event) error
	// Snapshot atomically replaces the session's snapshot and truncates
	// its WAL. The store stamps snap.Seq with the session's current
	// last-assigned sequence; the caller must ensure the snapshotted
	// state reflects every event appended so far (hold the session lock
	// across the call).
	Snapshot(id string, snap Snapshot) error
	// LoadAll returns every persisted session, sorted by id — the
	// recovery input. Call it once, before serving traffic.
	LoadAll() ([]Saved, error)
	// Compact discards all durable state of a session that no longer
	// needs recovery (an explicitly deleted session). Unknown ids are
	// not an error.
	Compact(id string) error
	// Close flushes and releases the backend. The store must not be
	// used afterwards.
	Close() error
}

// validID rejects session ids that cannot safely name a directory:
// empty, path metacharacters, or anything outside [A-Za-z0-9._-]
// (with "." and ".." excluded by the charset rules below).
func validID(id string) error {
	if id == "" {
		return fmt.Errorf("store: empty session id")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_':
		case c == '.' && i > 0: // no hidden/relative names
		default:
			return fmt.Errorf("store: session id %q contains unsafe character %q", id, c)
		}
	}
	return nil
}
