// Benchmarks regenerating the paper's figures (E1–E5) and the
// evaluation experiments (E6–E11), one bench per artifact, plus
// micro-benchmarks for the performance design choices documented in
// DESIGN.md §5. The HTTP and wire service has its own benchmark:
// `bash perfbench/run.sh` (see perfbench/METRICS.md).
// Run: go test -bench=. -benchmem
package jim_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	jim "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/setgame"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Trials: 3, Quick: true}
}

// benchExperiment runs a full experiment driver end to end.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// E1 (Figure 1): the Section 2 walkthrough.
func BenchmarkFig1Walkthrough(b *testing.B) { benchExperiment(b, "fig1") }

// E2 (Figure 2): one full interactive loop on the travel instance.
func BenchmarkFig2Loop(b *testing.B) {
	rel := workload.Travel()
	goal := workload.TravelQ2()
	b.ReportAllocs()
	b.ResetTimer()
	questions := 0
	for i := 0; i < b.N; i++ {
		res, err := jim.Infer(rel, goal, "lookahead-maxmin", 1)
		if err != nil {
			b.Fatal(err)
		}
		questions = res.UserLabels
	}
	b.ReportMetric(float64(questions), "questions")
}

// E3 (Figure 3): the four interaction modes.
func BenchmarkFig3Modes(b *testing.B) { benchExperiment(b, "fig3") }

// E4 (Figure 4): benefit of a strategy over user-order labeling.
func BenchmarkFig4Benefit(b *testing.B) { benchExperiment(b, "fig4") }

// E5 (Figure 5): inferring a picture join over Set-card pairs.
func BenchmarkFig5SetGame(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	left, err := setgame.Sample(rng, 9)
	if err != nil {
		b.Fatal(err)
	}
	right, err := setgame.Sample(rng, 9)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := setgame.PairInstance(left, right)
	if err != nil {
		b.Fatal(err)
	}
	goal, err := setgame.SameFeatureGoal("color", "shading")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	questions := 0
	for i := 0; i < b.N; i++ {
		res, err := jim.Infer(inst, goal, "lookahead-maxmin", 1)
		if err != nil {
			b.Fatal(err)
		}
		questions = res.UserLabels
	}
	b.ReportMetric(float64(questions), "questions")
}

// E6: strategy comparison — one sub-bench per strategy on a fixed
// complex instance; the "questions" metric is the table's row.
func BenchmarkStrategyComparison(b *testing.B) {
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 8, Tuples: 300, GoalAtoms: 3, ExtraMerges: 2.5, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range strategy.Names() {
		if name == "optimal" {
			continue // benched separately in E9
		}
		b.Run(name, func(b *testing.B) {
			questions := 0
			for i := 0; i < b.N; i++ {
				res, err := jim.Infer(rel, goal, name, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
				questions = res.UserLabels
			}
			b.ReportMetric(float64(questions), "questions")
		})
	}
}

// E7: scalability — full runs at growing instance sizes, grouped vs
// ungrouped signature handling.
func BenchmarkScalabilityGrouped(b *testing.B) {
	for _, size := range []int{1000, 5000, 20000} {
		rel, goal, err := workload.Synthetic(workload.SynthConfig{
			Attrs: 6, Tuples: size, Seed: 1, ExtraMerges: 1.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := jim.Infer(rel, goal, "lookahead-maxmin", 1)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// BenchmarkScalabilityStateBuild isolates instance indexing (signature
// computation and grouping), the per-tuple part of E7.
func BenchmarkScalabilityStateBuild(b *testing.B) {
	for _, size := range []int{1000, 5000, 20000} {
		rel, _, err := workload.Synthetic(workload.SynthConfig{
			Attrs: 6, Tuples: size, Seed: 1, ExtraMerges: 1.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jim.NewState(rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8: crowdsourcing cost experiment.
func BenchmarkCrowdCost(b *testing.B) { benchExperiment(b, "crowd") }

// E9: the optimal strategy's exponential blow-up — one sub-bench per
// signature count; compare ns/op growth against lookahead.
func BenchmarkOptimalBlowup(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, sigs := range []int{4, 6, 8} {
		rel := instanceWithSigs(b, rng, 5, sigs)
		goal := partition.RandomGoal(rng, 5, 2)
		b.Run("optimal/sigs="+sizeName(sigs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := jim.NewState(rel)
				if err != nil {
					b.Fatal(err)
				}
				eng := core.NewEngine(st, strategy.Optimal(strategy.DefaultOptimalBudget), oracle.Goal(goal))
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("lookahead/sigs="+sizeName(sigs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := jim.Infer(rel, goal, "lookahead-maxmin", 1)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// E10: SQL and GAV rendering over inferred predicates.
func BenchmarkGAVRendering(b *testing.B) { benchExperiment(b, "gav") }

// E11: hesitant users (abstention handling).
func BenchmarkHesitantUsers(b *testing.B) { benchExperiment(b, "hesitant") }

// Lookahead-2 vs lookahead-1 on a medium instance: the selection-cost
// vs question-count trade-off.
func BenchmarkLookaheadDepth(b *testing.B) {
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 200, GoalAtoms: 2, ExtraMerges: 1.5, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"lookahead-maxmin", "lookahead-2"} {
		b.Run(name, func(b *testing.B) {
			questions := 0
			for i := 0; i < b.N; i++ {
				res, err := jim.Infer(rel, goal, name, 1)
				if err != nil {
					b.Fatal(err)
				}
				questions = res.UserLabels
			}
			b.ReportMetric(float64(questions), "questions")
		})
	}
}

// Session persistence: save + load of a mid-run 5k-tuple session.
func BenchmarkSessionRoundTrip(b *testing.B) {
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 5000, Seed: 3, ExtraMerges: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := jim.NewState(rel)
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(goal))
	eng.MaxSteps = 3
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := jim.SaveSession(&buf, st, jim.SessionMeta{}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := jim.LoadSession(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Version-space boundary computation on a partially-labeled travel
// instance (the demo's certainty panel).
func BenchmarkVersionSpace(b *testing.B) {
	st, err := jim.NewState(workload.Travel())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Apply(2, core.Positive); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Apply(0, core.Negative); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.VersionSpace(0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks for the design choices in DESIGN.md §5 ---------

func randomPartitions(n, count int, seed int64) []partition.P {
	r := rand.New(rand.NewSource(seed))
	out := make([]partition.P, count)
	for i := range out {
		out[i] = partition.Uniform(r, n)
	}
	return out
}

func BenchmarkPartitionMeet(b *testing.B) {
	ps := randomPartitions(12, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		q := ps[(i+17)%len(ps)]
		_ = p.Meet(q)
	}
}

func BenchmarkPartitionJoin(b *testing.B) {
	ps := randomPartitions(12, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		q := ps[(i+17)%len(ps)]
		_ = p.Join(q)
	}
}

func BenchmarkPartitionLessEq(b *testing.B) {
	ps := randomPartitions(12, 64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		q := ps[(i+17)%len(ps)]
		_ = p.LessEq(q)
	}
}

func BenchmarkSigOf(b *testing.B) {
	rel, _, err := workload.Synthetic(workload.SynthConfig{Attrs: 8, Tuples: 64, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = jim.SigOf(rel.Tuple(i % rel.Len()))
	}
}

func BenchmarkSimulatePrune(b *testing.B) {
	rel, _, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 5000, Seed: 5, ExtraMerges: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := jim.NewState(rel)
	if err != nil {
		b.Fatal(err)
	}
	sigs := make([]partition.P, st.ClassCount())
	for c := range sigs {
		sigs[c] = st.ClassSig(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = st.SimulatePrunes(sigs[i%len(sigs)])
	}
}

func BenchmarkApplyAndPropagate(b *testing.B) {
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 5000, Seed: 6, ExtraMerges: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := jim.NewState(rel)
		if err != nil {
			b.Fatal(err)
		}
		inf := st.InformativeIndices()
		idx := inf[i%len(inf)]
		l := core.Positive
		if !goal.LessEq(st.Sig(idx)) {
			l = core.Negative
		}
		b.StartTimer()
		if _, err := st.Apply(idx, l); err != nil {
			b.Fatal(err)
		}
	}
}

// Lookahead pick latency on a 10k-tuple zipf instance: the incremental
// signature-lattice scorer vs the naive from-scratch reference
// (DESIGN.md §6). Each iteration scores a cold strategy against a
// mid-session state, i.e. exactly the work one pick costs after a new
// label arrives. jimbench -core measures the same comparison over full
// sessions and records it in BENCH_core.json.
func BenchmarkPickZipf10k(b *testing.B) {
	rel, goal, err := workload.Instance("zipf", workload.InstanceConfig{Tuples: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := jim.NewState(rel)
	if err != nil {
		b.Fatal(err)
	}
	// Advance a few questions so the hypothesis is non-trivial.
	warm := strategy.LookaheadMaxMin()
	for q := 0; q < 4 && !st.Done(); q++ {
		i, ok := warm.Pick(st)
		if !ok {
			break
		}
		l := core.Negative
		if core.Selects(goal, rel.Tuple(i)) {
			l = core.Positive
		}
		if _, err := st.Apply(i, l); err != nil {
			b.Fatal(err)
		}
	}
	paths := []struct {
		name string
		mk   func() core.Picker
	}{
		{"incremental", func() core.Picker { return strategy.LookaheadMaxMin() }},
		{"naive", func() core.Picker { return strategy.MustNaive("lookahead-maxmin", 0) }},
	}
	for _, path := range paths {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := path.mk().Pick(st); !ok {
					b.Fatal("no informative tuple left")
				}
			}
		})
	}
}

// Full 10k-tuple zipf sessions end to end on the incremental path —
// the session-throughput side of the -core benchmark.
func BenchmarkSessionZipf10k(b *testing.B) {
	rel, goal, err := workload.Instance("zipf", workload.InstanceConfig{Tuples: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	questions := 0
	for i := 0; i < b.N; i++ {
		st, err := jim.NewState(rel)
		if err != nil {
			b.Fatal(err)
		}
		eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(goal))
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
		questions = res.UserLabels
	}
	b.ReportMetric(float64(questions), "questions")
}

func instanceWithSigs(b *testing.B, rng *rand.Rand, n, k int) *jim.Relation {
	b.Helper()
	rel := jim.NewRelation(mustSchema(b, workload.AttrNames(n)...))
	seen := map[string]bool{}
	for len(seen) < k {
		sig := partition.Uniform(rng, n)
		if seen[sig.Key()] {
			continue
		}
		seen[sig.Key()] = true
		if err := rel.Append(workload.TupleWithSig(sig)); err != nil {
			b.Fatal(err)
		}
	}
	return rel
}

func mustSchema(b *testing.B, names ...string) *jim.Schema {
	b.Helper()
	s, err := jim.NewSchema(names...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func sizeName(n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return itoa(n/1000) + "k"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
