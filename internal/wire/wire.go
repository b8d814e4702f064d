// Package wire implements the JIM service's compact binary protocol:
// a length-prefixed, varint-framed codec served on a second listener
// next to the /v1 HTTP API, sharing the exact same session machinery.
//
// The protocol exists because the dialogue loop is latency-bound —
// every user answer costs a round trip — and profiling showed the
// majority of per-request cost on the /step path was HTTP parsing and
// JSON encode/decode, not inference. The wire codec removes both:
// frames are a handful of bytes, connections are persistent, and a
// single step frame can carry K answers plus the request for the next
// proposal, so a whole ranked batch is answered under one session-lock
// acquisition.
//
// # Framing
//
// Every message — request or response — is one frame:
//
//	frame   := uvarint(len(payload)) payload
//	request := op(1 byte) body
//	response:= status(1 byte) body        status 0 = ok, 1 = error
//	string  := uvarint(len) bytes
//
// Integers are unsigned LEB128 varints (encoding/binary), except the
// create seed, which is a signed (zigzag) varint. Connections carry a
// strict in-order request/response stream: a client may pipeline any
// number of request frames without waiting, and the server answers
// them in arrival order, flushing once its read buffer drains.
//
// # Error handling
//
// Application failures (unknown session, inconsistent label, …) are
// per-request: the response frame carries status 1 with a code from
// the jim.Error taxonomy plus a message, and the connection stays
// usable. Protocol failures (malformed frame, oversized length,
// truncated varint) are fatal to the connection: after a best-effort
// error frame the server closes it, because a misframed stream has no
// trustworthy resynchronization point.
package wire

import (
	"fmt"
	"time"

	"repro/internal/codec"
)

// Op names one request kind. The byte value is the wire encoding.
type Op byte

// The request opcodes. Values are part of the wire contract.
const (
	// OpCreate opens a session: strategy string, seed varint (signed),
	// csv string. Response: the session id.
	OpCreate Op = 1
	// OpStep is the dialogue workhorse: session id, k uvarint, answer
	// count uvarint, then (index uvarint, label byte) per answer. The
	// answers are applied in order under one session write lock, then
	// k selects what comes back: 0 = apply only (the POST /label
	// shape), 1 = the single routed proposal (GET /next), > 1 = the
	// ranked top-k batch (GET /topk). One frame therefore covers every
	// /v1 dialogue call, alone or fused.
	OpStep Op = 2
	// OpAppend streams arrival tuples: session id, row count, then per
	// row a cell count and the cells as strings (same spellings as the
	// HTTP "rows" encoding; parsed under the session's pinned typing).
	OpAppend Op = 3
	// OpResult reads the inferred query: done byte, predicate string,
	// SQL string. (The HTTP result's certainty panel is not served on
	// the wire — it is a demo surface, not a hot-path one.)
	OpResult Op = 4
	// OpDelete drops the session and compacts its durable state.
	OpDelete Op = 5
)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpStep:
		return "step"
	case OpAppend:
		return "append"
	case OpResult:
		return "result"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Pattern is the stable /stats endpoint label for the op. Returned
// strings are constants so recording an op never allocates.
func (o Op) Pattern() string {
	switch o {
	case OpCreate:
		return "WIRE create"
	case OpStep:
		return "WIRE step"
	case OpAppend:
		return "WIRE append"
	case OpResult:
		return "WIRE result"
	case OpDelete:
		return "WIRE delete"
	}
	return "WIRE unknown"
}

// Label is the wire encoding of one answer.
type Label byte

// The answer labels. Values are part of the wire contract.
const (
	// Negative is the explicit "-" label.
	Negative Label = 0
	// Positive is the explicit "+" label.
	Positive Label = 1
	// Skip defers the tuple's signature class ("I don't know").
	Skip Label = 2
)

// Valid reports whether the byte is a defined label.
func (l Label) Valid() bool { return l <= Skip }

// Answer is one (tuple index, label) pair of a step frame.
type Answer struct {
	Index int
	Label Label
}

// AnswerOutcome summarizes what one applied answer changed.
type AnswerOutcome struct {
	// NewlyImplied counts labels the answer propagated to other tuples.
	NewlyImplied int
	// Informative is the informative-tuple count after the answer.
	Informative int
}

// StepResult is the outcome of one step frame. The slices are owned by
// whoever decodes or fills the result and are reused across calls:
// they are valid only until the next step on the same connection or
// client (copy to keep). See DESIGN.md §9 for the reuse contract.
type StepResult struct {
	// Applied has one outcome per answer in the request, in order.
	Applied []AnswerOutcome
	// Done reports convergence after the answers were applied.
	Done bool
	// Proposals holds the next tuple indices to ask about: none for
	// k = 0, at most one routed proposal for k = 1, the ranked batch
	// for k > 1. Empty with Done set means the dialogue is over.
	Proposals []int
}

// AppendResult is the outcome of an append frame.
type AppendResult struct {
	Appended     int
	NewlyImplied int
	Informative  int
	Done         bool
}

// ResultData is the inferred query as served on the wire.
type ResultData struct {
	Done      bool
	Predicate string
	SQL       string
}

// Backend is the session-apply surface the connection handler drives —
// implemented by internal/server.Server, so the wire listener and the
// /v1 HTTP mux run the exact same create/step/append/delete code
// paths against the same session table and durable store.
type Backend interface {
	// WireCreate opens a session from a CSV payload and returns its id.
	// csv is a view into the connection's frame buffer, valid only
	// until the call returns: the backend copies whatever it keeps.
	WireCreate(csv, strategy string, seed int64) (id string, err error)
	// WireStep applies the answers in order and — per k — proposes
	// what to ask next, all under one session write-lock acquisition.
	// out is reset and filled in place (its slices are reused across
	// calls). An answer that fails stops the batch: earlier answers
	// stand, exactly as if they had arrived in separate frames.
	WireStep(id string, answers []Answer, k int, out *StepResult) error
	// WireAppend parses the rows under the session's pinned typing and
	// streams them into the instance. The cells are views into the
	// connection's frame buffer, valid only until the call returns:
	// the backend copies whatever it keeps.
	WireAppend(id string, rows [][]string) (AppendResult, error)
	// WireResult reads the inferred query.
	WireResult(id string) (ResultData, error)
	// WireDelete drops the session (and its durable copy).
	WireDelete(id string) error
}

// OpRecorder is an optional side interface of Backend: when the
// backend implements it, the connection handler reports each request's
// latency under the op's Pattern, so wire traffic shows up in /stats
// next to the HTTP endpoints.
type OpRecorder interface {
	RecordWireOp(pattern string, d time.Duration, isErr bool)
}

// DefaultMaxFrame caps frame payloads when no limit is configured —
// the same default as the HTTP -max-body-bytes cap, and wired to that
// flag in jimserver.
const DefaultMaxFrame = 32 << 20

// Typed protocol errors. Decoding failures wrap exactly one of these,
// so callers can switch on errors.Is without parsing messages. The
// sentinels are shared with internal/codec (the same primitives frame
// the store's on-disk format), re-exported here so wire callers keep
// a transport-local name for them.
var (
	// ErrFrameTooLarge reports a frame whose declared payload length
	// exceeds the configured cap. The length is not trusted: nothing
	// is allocated or read for such a frame.
	ErrFrameTooLarge = codec.ErrTooLarge
	// ErrTruncated reports a stream that ended inside a frame — a
	// partial length varint or fewer payload bytes than declared.
	ErrTruncated = codec.ErrTruncated
	// ErrMalformed reports a structurally invalid payload: unknown op,
	// bad label byte, an inner length pointing past the frame end, a
	// varint overflow, or trailing garbage.
	ErrMalformed = codec.ErrMalformed
)
