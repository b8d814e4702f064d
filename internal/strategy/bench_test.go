package strategy

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
	"repro/internal/workload"
)

// benchPick times a full rescore-and-pick of s: it alternates between
// two identical states, so the ranked cache (keyed on the state)
// misses on every call. Before timing it holds s's pick to the naive
// reference's on the same state, and every timed pick to that tuple,
// so a fast wrong kernel fails here rather than reporting a number. It
// reports the informative class count, the projection-table entries
// (D) and the table words each class's score reads too.
func benchPick(b *testing.B, s core.Picker, st [2]*core.State) {
	b.Helper()
	want, wantOK := MustNaive(s.Name(), 0).Pick(st[0])
	if got, ok := s.Pick(st[0]); !ok || !wantOK || got != want {
		b.Fatalf("%s picked %d (%v), naive %d (%v)", s.Name(), got, ok, want, wantOK)
	}
	s.Pick(st[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, _ := s.Pick(st[i&1]); got != want {
			b.Fatalf("picked %d, want %d", got, want)
		}
	}
	b.ReportMetric(float64(st[0].InformativeGroupCount()), "classes")
	b.ReportMetric(float64(st[0].ProjectionCount()), "entries")
	b.ReportMetric(float64(st[0].ProjectionWords()), "words")
}

// BenchmarkPickDialogueTurns times the default strategy's pick at
// turns 0–3 of a session created from the first 1,250 rows of the
// 5,000-tuple synthetic instance, with the goal oracle answering: the
// dialogue the bulk-wire service benchmark drives, in process. turn=1
// is bulk-wire's first answered turn: the first answer is a negative,
// so M_P is still Top and every informative class is its own
// projection (D = C_inf). That pick is the costliest of the dialogue
// and the population of bulk-wire's step_p90_ms; by turn 2 M_P has
// moved and D is about 12.
func BenchmarkPickDialogueTurns(b *testing.B) {
	full, goal, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	build := func(turns int) *core.State {
		rel := relation.New(full.Schema())
		for i := 0; i < 1250; i++ {
			rel.MustAppend(full.Tuple(i))
		}
		st, err := core.NewState(rel)
		if err != nil {
			b.Fatal(err)
		}
		s, ans := LookaheadMaxMin(), oracle.Goal(goal)
		for k := 0; k < turns; k++ {
			i, ok := s.Pick(st)
			if !ok {
				b.Fatalf("converged before turn %d", turns)
			}
			l, err := ans.Label(st, i)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Apply(i, l); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	for turn := 0; turn < 4; turn++ {
		st := [2]*core.State{build(turn), build(turn)}
		b.Run(fmt.Sprintf("turn=%d", turn), func(b *testing.B) {
			benchPick(b, LookaheadMaxMin(), st)
		})
	}
}

// BenchmarkPickFanOut compares the sequential and fanned-out lookahead
// pick around parallelThreshold: states with 128, 256 and 512
// informative classes (distinct random signatures over 8 attributes),
// at turn 0 (M_P = Top, so every class is its own projection: the
// costliest pick) and after one positive label (projections merged).
// The work the threshold gates is classes × (words + callWords), from
// about 9k to 135k table words here. Run with -cpu 2 to give the
// fan-out a second core.
func BenchmarkPickFanOut(b *testing.B) {
	const attrs = 8
	for _, classes := range []int{128, 256, 512} {
		r := rand.New(rand.NewSource(int64(classes)))
		rel := relation.New(relation.MustSchema("A", "B", "C", "D", "E", "F", "G", "H"))
		seen := map[string]bool{}
		for len(seen) < classes {
			sig := partition.Uniform(r, attrs)
			if seen[sig.Key()] {
				continue
			}
			seen[sig.Key()] = true
			for copies := 0; copies < 4; copies++ {
				tu := make(relation.Tuple, attrs)
				for i := range tu {
					tu[i] = values.Int(int64(len(seen))<<8 + int64(sig.BlockOf(i)))
				}
				rel.MustAppend(tu)
			}
		}
		for _, turn := range []int{0, 1} {
			build := func() *core.State {
				st, err := core.NewState(rel)
				if err != nil {
					b.Fatal(err)
				}
				if turn == 1 {
					// A positive label on a coarse class moves M_P.
					best := 0
					for i := 0; i < rel.Len(); i++ {
						if st.Sig(i).BlockCount() < st.Sig(best).BlockCount() {
							best = i
						}
					}
					if _, err := st.Apply(best, core.Positive); err != nil {
						b.Fatal(err)
					}
				}
				return st
			}
			st := [2]*core.State{build(), build()}
			for _, mode := range []string{"seq", "fanout"} {
				threshold := 1 << 30
				if mode == "fanout" {
					threshold = 1
				}
				name := fmt.Sprintf("classes=%d/turn=%d/%s", classes, turn, mode)
				b.Run(name, func(b *testing.B) {
					withThreshold(b, threshold, func() {
						benchPick(b, LookaheadMaxMin(), st)
					})
				})
			}
		}
	}
}

// BenchmarkSessionFleetGC is the session-fleet sibling of the
// relation package's BenchmarkFleetGC: it times one forced full
// collection with 200 live States over full bulk-wire instances
// (5,000×6 synthetic integers), each with the default strategy's first
// proposal served, so the fleet holds the class tables, the projection
// tables and the strategies' score caches a server's sessions hold,
// not only their relations.
func BenchmarkSessionFleetGC(b *testing.B) {
	rel, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	type session struct {
		st     *core.State
		picker core.Picker
	}
	fleet := make([]session, 200)
	for i := range fleet {
		st, err := core.NewState(rel.Clone())
		if err != nil {
			b.Fatal(err)
		}
		fleet[i] = session{st, LookaheadMaxMin()}
		if _, ok := fleet[i].picker.Pick(st); !ok {
			b.Fatal("no informative tuple")
		}
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	runtime.KeepAlive(fleet)
}
