package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkNewStateSynthetic builds the state of a create-sized
// instance: 1,250×6 synthetic tuples, the bulk-wire create. It covers
// signature registration, the lattice and propagation. NewState does
// not mutate its relation until Append, so the iterations share one.
func BenchmarkNewStateSynthetic(b *testing.B) {
	rel, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: 1250, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewState(rel); err != nil {
			b.Fatal(err)
		}
	}
}
