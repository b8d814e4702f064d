// Package strategy implements JIM's tuple-presentation strategies Υ: a
// strategy maps the current inference state to the next informative
// tuple to show the user. The paper classifies strategies as local
// (simple fixed orders), lookahead (score by the quantity of
// information a label would contribute, via a generalized notion of
// entropy), and random for comparison; an exponential optimal strategy
// exists but is impractical (implemented in this package for tiny
// instances as an ablation).
//
// All strategies operate on signature classes, named by their position
// in the state's class table (core.State.ClassCount): tuples with the
// same Eq signature are interchangeable for every hypothesis, so
// scoring classes instead of tuples is an exact optimization.
//
// # Incremental scoring
//
// ranked keeps its per-class scores keyed on core.State.Version, so a
// pick after no new label reuses them outright, and the local
// strategies — whose scores depend only on M_P and the class
// signature — additionally survive every Apply that leaves M_P in
// place (in particular, every negative label) via core.State.MPVersion.
// naive.go holds the from-scratch reference implementations that the
// differential tests and benchmarks compare against.
//
// # Determinism
//
// Every strategy's pick is a pure function of (construction
// parameters, logical state) — including "random", whose draws hash
// (seed, explicit-label count, instance size, class position) instead
// of stepping a mutable RNG. That property is what the durable session
// store's crash recovery rests on: a session rebuilt from snapshot +
// WAL replay proposes exactly the tuples the uninterrupted run would
// have, for all eight strategies.
package strategy
