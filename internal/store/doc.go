// Package store persists inference sessions so labeled work survives
// a server restart. The durable unit is classic write-ahead logging:
// every mutating operation on a session (an explicit label, a skip, a
// streamed-in tuple batch) is appended to a per-session log the moment
// it is applied in memory, and the full session state is periodically
// folded into a snapshot — a session-format-v2 file (internal/session)
// wrapped in an envelope carrying the run configuration (strategy,
// seed, pinned typing, active skips) that the file format does not
// record. Recovery is snapshot + log suffix: internal/server rebuilds
// each live session by loading the snapshot through session.LoadBytes
// and replaying the remaining events through the code paths the live
// requests took (labels and skips through the jim.Session methods, an
// append decoded into one batch the session adopts), so replay can
// never desynchronize from the inference logic.
//
// Two backends implement the Store interface:
//
//   - Mem (NewMem) is the no-op backend: nothing is written, LoadAll
//     finds nothing — exactly the pre-durability in-RAM behavior, and
//     the default.
//   - Disk (NewDisk) keeps one directory per session holding snap.bin
//     and wal.log. All file IO funnels through a single committer
//     goroutine that batches concurrent appends and issues one fsync
//     per touched log per batch (group commit), so durability costs
//     one ordered write per mutation, not one synchronous disk flush
//     per request.
//
// Sequence numbers make replay exact under any crash point: the store
// assigns every event a per-session sequence number, a snapshot
// records the last sequence folded into it, and LoadAll discards
// events the snapshot already covers — so a crash between "snapshot
// renamed" and "log truncated" double-applies nothing.
//
// See OPERATIONS.md for the operator view: on-disk layout, recovery
// semantics, and what survives which failure.
package store
