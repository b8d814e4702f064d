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

// coreWorkloads are the instances the incremental-vs-naive
// comparisons run on at 10,000 tuples: the generators that scale.
var coreWorkloads = []string{"zipf", "synthetic", "star"}

// coreStrategies are the lookahead strategies those comparisons time,
// each with the constructor of its incremental scorer.
var coreStrategies = []struct {
	name string
	mk   func() core.KPicker
}{
	{"lookahead-maxmin", strategy.LookaheadMaxMin},
	{"lookahead-expected", strategy.LookaheadExpected},
	{"lookahead-entropy", strategy.LookaheadEntropy},
}

// TestCoreWorkloadsIncrementalMatchesNaive runs whole sessions of
// every strategy BenchmarkPick10k times on the instances it times,
// built by the same generator config at 500 tuples: the incremental
// scorer must pick, tuple for tuple, what the naive rescorer picks,
// so both ask the same number of questions and infer the same query.
// The benchmark holds one mid-session pick to this at 10,000 tuples.
func TestCoreWorkloadsIncrementalMatchesNaive(t *testing.T) {
	for _, wl := range coreWorkloads {
		t.Run(wl, func(t *testing.T) {
			rel, goal, err := workload.Instance(wl, workload.InstanceConfig{Tuples: 500, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range coreStrategies {
				t.Run(s.name, func(t *testing.T) {
					inc, naive := s.mk(), strategy.MustNaive(s.name, 0)
					stInc, err := jim.NewState(rel)
					if err != nil {
						t.Fatal(err)
					}
					stNaive, err := jim.NewState(rel)
					if err != nil {
						t.Fatal(err)
					}
					questions := 0
					for ; ; questions++ {
						if questions > rel.Len() {
							t.Fatal("no convergence")
						}
						want, ok := naive.Pick(stNaive)
						got := ask(t, stInc, inc, goal, 1)
						if !ok || len(got) == 0 {
							if ok || len(got) != 0 {
								t.Fatalf("question %d: incremental asked %v, naive ok=%v", questions, got, ok)
							}
							break
						}
						if got[0].index != want {
							t.Fatalf("question %d: incremental picked %d, naive %d", questions, got[0].index, want)
						}
						replay(t, stNaive, got)
					}
					if questions == 0 {
						t.Fatal("session asked no questions")
					}
					if !stInc.Done() || !stNaive.Done() {
						t.Fatalf("incremental done=%v, naive done=%v", stInc.Done(), stNaive.Done())
					}
					if !stInc.Result().Equal(stNaive.Result()) {
						t.Fatalf("results diverged: %v vs %v", stInc.Result(), stNaive.Result())
					}
				})
			}
		})
	}
}

// answer is one oracle-labelled question of a benchmark dialogue.
type answer struct {
	index int
	label core.Label
}

// ask lets picker choose up to n questions on st, labels each by goal
// and applies it; it stops early once nothing is informative.
func ask(tb testing.TB, st *core.State, picker core.Picker, goal partition.P, n int) []answer {
	tb.Helper()
	var out []answer
	for len(out) < n {
		i, ok := picker.Pick(st)
		if !ok {
			break
		}
		a := answer{i, core.Negative}
		if core.Selects(goal, st.Relation().Tuple(i)) {
			a.label = core.Positive
		}
		if _, err := st.Apply(a.index, a.label); err != nil {
			tb.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// replay applies answers recorded by ask to st.
func replay(tb testing.TB, st *core.State, answers []answer) {
	tb.Helper()
	for _, a := range answers {
		if _, err := st.Apply(a.index, a.label); err != nil {
			tb.Fatal(err)
		}
	}
}

// Lookahead pick latency on 10k-tuple instances: the incremental
// signature-lattice scorer vs the naive from-scratch reference
// (DESIGN.md §6), the paper's claim that picks stay interactive at
// this scale. The state is mid-session: it holds the first half of
// the answers of a full default-strategy dialogue. Each iteration
// scores a cold strategy against it, i.e. exactly the work one pick
// costs after a new label arrives. Before any timing, both paths must
// pick the same tuple (the differential tests in internal/strategy
// use instances of at most 120 tuples), and every timed
// pick is held to it too, so each -cpu value checks its own scorer.
// Run with -count 10 -cpu 1,2 -timeout 30m for medians and spread.
func BenchmarkPick10k(b *testing.B) {
	for _, wl := range coreWorkloads {
		b.Run(wl, func(b *testing.B) {
			rel, goal, err := workload.Instance(wl, workload.InstanceConfig{Tuples: 10000, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			full, err := jim.NewState(rel)
			if err != nil {
				b.Fatal(err)
			}
			dialogue := ask(b, full, strategy.LookaheadMaxMin(), goal, rel.Len())
			st, err := jim.NewState(rel)
			if err != nil {
				b.Fatal(err)
			}
			replay(b, st, dialogue[:len(dialogue)/2])
			for _, s := range coreStrategies {
				b.Run(s.name, func(b *testing.B) {
					paths := []struct {
						name string
						mk   func() core.KPicker
					}{
						{"incremental", s.mk},
						{"naive", func() core.KPicker { return strategy.MustNaive(s.name, 0) }},
					}
					want, ok := paths[1].mk().Pick(st)
					if got, gotOK := paths[0].mk().Pick(st); !ok || !gotOK || got != want {
						b.Fatalf("incremental picked %d (%v), naive %d (%v)", got, gotOK, want, ok)
					}
					for _, path := range paths {
						b.Run(path.name, func(b *testing.B) {
							b.ReportAllocs()
							for i := 0; i < b.N; i++ {
								if got, _ := path.mk().Pick(st); got != want {
									b.Fatalf("picked %d, want %d", got, want)
								}
							}
						})
					}
				})
			}
		})
	}
}

// Streaming ingestion on 10k-tuple instances (DESIGN.md §7): a quarter
// of each instance is present at creation and the rest arrives in 16
// batches; one op is the whole stream. "append" times every
// State.Append; "rebuild" times strategy.RebuildFromScratch at the
// same batch points, the fresh state plus label replay a build-once
// stack would pay per batch. Before each batch the dialogue answers
// three questions of the default strategy, so arrivals are classified
// against a non-trivial hypothesis. The answers come from one
// reference run and are replayed, so no pick and no state build is
// timed.
func BenchmarkAppend10k(b *testing.B) {
	for _, wl := range coreWorkloads {
		b.Run(wl, func(b *testing.B) {
			stream, err := workload.NewStream(wl, workload.StreamConfig{Tuples: 10000, Batches: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// answers[k] are given before batch k lands.
			answers := make([][]answer, len(stream.Batches))
			ref, err := core.NewState(stream.Initial.Clone())
			if err != nil {
				b.Fatal(err)
			}
			picker := strategy.LookaheadMaxMin()
			for k, batch := range stream.Batches {
				answers[k] = ask(b, ref, picker, stream.Goal, 3)
				if _, err := ref.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
			for _, path := range []string{"append", "rebuild"} {
				b.Run(path, func(b *testing.B) {
					b.ReportAllocs()
					b.StopTimer()
					for i := 0; i < b.N; i++ {
						st, err := core.NewState(stream.Initial.Clone())
						if err != nil {
							b.Fatal(err)
						}
						for k, batch := range stream.Batches {
							replay(b, st, answers[k])
							if path == "append" {
								b.StartTimer()
							}
							_, err := st.Append(batch)
							b.StopTimer()
							if err != nil {
								b.Fatal(err)
							}
							if path == "rebuild" {
								b.StartTimer()
								_, err = strategy.RebuildFromScratch(st)
								b.StopTimer()
								if err != nil {
									b.Fatal(err)
								}
							}
						}
					}
				})
			}
		})
	}
}

// Full 10k-tuple zipf sessions end to end on the incremental path: the
// session-throughput side of BenchmarkPick10k.
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
