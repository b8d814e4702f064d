// Package server exposes JIM over HTTP: sessions are created from a
// CSV instance, the client fetches the next proposed tuple, posts
// yes/no/skip answers, and reads the inferred predicate — the
// demonstration's web tool as a JSON API, hardened for concurrent
// service.
//
// # Wire contract
//
// The contract is versioned: every endpoint lives under /v1/ and
// failures are a structured envelope {"error":{"code","message"}}
// whose codes come from the public jim error taxonomy (jim.ErrorCode).
// The only unversioned path is the GET /healthz probe; the
// pre-versioning aliases are gone and answer 404. See API.md for the
// endpoint reference — docs_test.go holds that document and the route
// table (Routes) to exact agreement. The binary wire protocol
// (internal/wire) is a second codec over the same apply layer
// (apply.go): HTTP handlers and Wire* methods both decode, call one
// apply function, and encode, so the two transports share every
// dialogue rule.
//
// # Layering
//
// All inference behavior — proposal routing around skipped classes,
// conflict handling, arrival parsing under the creation-time typing —
// lives in jim.Session; this package is only routing, locks, and JSON
// codecs over it. Sessions live in a sharded in-memory table; each
// session carries its own RWMutex so read endpoints (/next, /topk,
// /result, summaries) run concurrently and a slow request on one
// session never blocks another.
//
// # Lifecycle
//
// Idle sessions are evicted after a configurable TTL, a session cap
// rejects overload with 429, and GET /v1/stats reports session counts,
// label throughput, per-endpoint latency, and store health.
//
// # Durability
//
// With a durable store configured (Config.Store, internal/store), the
// table is a cache and the store is the truth: every mutating request
// appends a WAL event after its in-memory apply and before its
// response, session state is periodically folded into snapshots (a
// size policy after Config.SnapshotEvery events, an age policy during
// sweeps), TTL eviction demotes idle sessions to disk instead of
// discarding them, and Restore rebuilds the table at startup by
// replaying snapshots and WAL suffixes through the same jim.Session
// methods the original requests used. OPERATIONS.md is the operator
// guide: flags, on-disk layout, recovery semantics, and what survives
// which kind of crash.
package server
