// Package workload builds the instances JIM is evaluated on: the
// paper's flight&hotel motivating example (Figure 1), synthetic
// instances with planted goal queries, a heavy-tailed zipf generator,
// and a star-schema generator standing in for the benchmark datasets
// of the companion paper.
//
// Instance is the uniform entry point: every generator is addressable
// by name ("travel", "synthetic", "zipf", "star") with a seeded
// config, which is how the service benchmark, the core benchmarks,
// and the experiment runner stay agnostic of which instance family
// they are driving. Each generated instance comes with its goal query
// so oracle labelers can answer membership questions mechanically.
//
// NewStream carves a generated instance into an initial prefix plus
// arrival batches — the streaming-ingestion shape: sessions created
// over the prefix receive the remainder through State.Append while
// labeling is underway, and the carve preserves global tuple order so
// indices agree with the uncarved instance.
package workload
