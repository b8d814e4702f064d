package strategy

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The differential tests are the safety net under the incremental
// scoring refactor: for every heuristic strategy, the versioned
// incremental scorer must pick, tuple for tuple, exactly what the
// from-scratch naive rescorer (naive.go) picks, across randomized
// workloads and the full course of each session.

type diffCase struct {
	workload string
	rel      *relation.Relation
	goal     partition.P
}

func diffCases(t *testing.T, seed int64) []diffCase {
	t.Helper()
	syn, goalSyn, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: 120, GoalAtoms: 2, ExtraMerges: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Twelve attributes need a second pair-word per signature, so this
	// family drives the multi-word path of the prune-count kernel.
	syn12, goalSyn12, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 12, Tuples: 40, GoalAtoms: 3, ExtraMerges: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := workload.Zipf(workload.ZipfConfig{
		Attrs: 5, Tuples: 90, Vocab: 6, S: 1.4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	goalZipf := partition.RandomGoal(rand.New(rand.NewSource(seed)), 5, 2)
	star, err := workload.NewStar(workload.StarConfig{
		Dims: 2, DimRows: 6, DimAttrs: 1, FactAttrs: 1, Rows: 100, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []diffCase{
		{"synthetic", syn, goalSyn},
		{"synthetic-12", syn12, goalSyn12},
		{"zipf", zipf, goalZipf},
		{"star", star.Instance, star.Goal},
	}
}

func TestIncrementalMatchesNaivePickForPick(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		for _, tc := range diffCases(t, seed) {
			for _, name := range HeuristicNames() {
				fast, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := Naive(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				stFast, err := core.NewState(tc.rel)
				if err != nil {
					t.Fatal(err)
				}
				stNaive, err := core.NewState(tc.rel)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; ; step++ {
					if step > tc.rel.Len() {
						t.Fatalf("%s/%s seed %d: no convergence", name, tc.workload, seed)
					}
					// Compare top-k rankings a few times mid-session too.
					if step%3 == 0 {
						for _, k := range []int{1, 2, 5, stFast.InformativeGroupCount() + 3} {
							kf := fast.PickK(stFast, k)
							kn := naive.PickK(stNaive, k)
							if len(kf) != len(kn) {
								t.Fatalf("%s/%s seed %d step %d: PickK(%d) lengths %d vs %d",
									name, tc.workload, seed, step, k, len(kf), len(kn))
							}
							for j := range kf {
								if kf[j] != kn[j] {
									t.Fatalf("%s/%s seed %d step %d: PickK(%d)[%d] = %d, naive %d",
										name, tc.workload, seed, step, k, j, kf[j], kn[j])
								}
							}
						}
					}
					iF, okF := fast.Pick(stFast)
					iN, okN := naive.Pick(stNaive)
					if okF != okN {
						t.Fatalf("%s/%s seed %d step %d: ok %v vs naive %v", name, tc.workload, seed, step, okF, okN)
					}
					if !okF {
						break
					}
					if iF != iN {
						t.Fatalf("%s/%s seed %d step %d: picked %d, naive picked %d", name, tc.workload, seed, step, iF, iN)
					}
					l := core.Negative
					if core.Selects(tc.goal, tc.rel.Tuple(iF)) {
						l = core.Positive
					}
					if _, err := stFast.Apply(iF, l); err != nil {
						t.Fatal(err)
					}
					if _, err := stNaive.Apply(iN, l); err != nil {
						t.Fatal(err)
					}
				}
				if !stFast.Done() || !stNaive.Done() {
					t.Fatalf("%s/%s seed %d: fast done=%v naive done=%v", name, tc.workload, seed, stFast.Done(), stNaive.Done())
				}
				if !stFast.Result().Equal(stNaive.Result()) {
					t.Fatalf("%s/%s seed %d: results diverged: %v vs %v",
						name, tc.workload, seed, stFast.Result(), stNaive.Result())
				}
			}
		}
	}
}

// TestStreamingMatchesRebuildPickForPick is the safety net under
// streaming ingestion: a session whose instance arrives in Append
// batches, scored by the incremental path, must pick tuple for tuple
// exactly what a session that rebuilds from scratch after every batch
// (strategy.RebuildFromScratch + the naive rescorer) picks, across
// every heuristic strategy, with appends interleaved into the label
// sequence mid-session.
func TestStreamingMatchesRebuildPickForPick(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		for _, wl := range []string{"zipf", "star"} {
			stream, err := workload.NewStream(wl, workload.StreamConfig{
				Tuples: 90, Initial: 20, Batches: 6, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range HeuristicNames() {
				fast, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := Naive(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				stInc, err := core.NewState(stream.Initial.Clone())
				if err != nil {
					t.Fatal(err)
				}
				stRef, err := RebuildFromScratch(stInc)
				if err != nil {
					t.Fatal(err)
				}
				nextBatch := 0
				total := stream.TotalTuples()
				for step := 0; ; step++ {
					if step > 2*total {
						t.Fatalf("%s/%s seed %d: no convergence", name, wl, seed)
					}
					// Drip a batch into the live session every few labels;
					// the reference path rebuilds from scratch instead.
					if nextBatch < len(stream.Batches) && step%3 == 0 {
						if _, err := stInc.Append(stream.Batches[nextBatch]); err != nil {
							t.Fatalf("%s/%s seed %d step %d: Append: %v", name, wl, seed, step, err)
						}
						nextBatch++
						if stRef, err = RebuildFromScratch(stInc); err != nil {
							t.Fatalf("%s/%s seed %d step %d: rebuild: %v", name, wl, seed, step, err)
						}
					}
					if step%4 == 0 {
						for _, k := range []int{1, 3, stInc.InformativeGroupCount() + 2} {
							kf := fast.PickK(stInc, k)
							kn := naive.PickK(stRef, k)
							if len(kf) != len(kn) {
								t.Fatalf("%s/%s seed %d step %d: PickK(%d) lengths %d vs %d",
									name, wl, seed, step, k, len(kf), len(kn))
							}
							for j := range kf {
								if kf[j] != kn[j] {
									t.Fatalf("%s/%s seed %d step %d: PickK(%d)[%d] = %d, rebuild %d",
										name, wl, seed, step, k, j, kf[j], kn[j])
								}
							}
						}
					}
					iF, okF := fast.Pick(stInc)
					iN, okN := naive.Pick(stRef)
					if okF != okN {
						t.Fatalf("%s/%s seed %d step %d: ok %v vs rebuild %v", name, wl, seed, step, okF, okN)
					}
					if !okF {
						if nextBatch < len(stream.Batches) {
							continue // converged early; more arrivals pending
						}
						break
					}
					if iF != iN {
						t.Fatalf("%s/%s seed %d step %d: picked %d, rebuild picked %d", name, wl, seed, step, iF, iN)
					}
					l := core.Negative
					if core.Selects(stream.Goal, stInc.Relation().Tuple(iF)) {
						l = core.Positive
					}
					if _, err := stInc.Apply(iF, l); err != nil {
						t.Fatal(err)
					}
					if _, err := stRef.Apply(iN, l); err != nil {
						t.Fatal(err)
					}
				}
				if !stInc.Done() || !stRef.Done() {
					t.Fatalf("%s/%s seed %d: inc done=%v rebuild done=%v", name, wl, seed, stInc.Done(), stRef.Done())
				}
				if stInc.Relation().Len() != total {
					t.Fatalf("%s/%s seed %d: streamed %d tuples, want %d", name, wl, seed, stInc.Relation().Len(), total)
				}
				if !stInc.Result().Equal(stRef.Result()) {
					t.Fatalf("%s/%s seed %d: results diverged: %v vs %v",
						name, wl, seed, stInc.Result(), stRef.Result())
				}
				if err := stInc.CheckInvariants(); err != nil {
					t.Fatalf("%s/%s seed %d: %v", name, wl, seed, err)
				}
			}
		}
	}
}

// TestIncrementalMatchesNaiveUnderParallel runs a lookahead
// differential with several incremental pickers scoring one shared
// State at once: the projection table they all read is built by
// whichever reaches a new Version first, and every picker must still
// pick, tuple for tuple, what the naive rescorer picks.
func TestIncrementalMatchesNaiveUnderParallel(t *testing.T) {
	const pickers = 4
	for _, tc := range diffCases(t, 5) {
		fast := make([]core.KPicker, pickers)
		for w := range fast {
			fast[w] = LookaheadMaxMin()
		}
		naive := MustNaive("lookahead-maxmin", 5)
		stFast, err := core.NewState(tc.rel)
		if err != nil {
			t.Fatal(err)
		}
		stNaive, err := core.NewState(tc.rel)
		if err != nil {
			t.Fatal(err)
		}
		for {
			iN, okN := naive.Pick(stNaive)
			picks := make([]int, pickers)
			oks := make([]bool, pickers)
			var wg sync.WaitGroup
			for w := range fast {
				wg.Add(1)
				go func() {
					defer wg.Done()
					picks[w], oks[w] = fast[w].Pick(stFast)
				}()
			}
			wg.Wait()
			for w := range fast {
				if oks[w] != okN || (okN && picks[w] != iN) {
					t.Fatalf("%s: picker %d (%d,%v) vs naive (%d,%v)", tc.workload, w, picks[w], oks[w], iN, okN)
				}
			}
			if !okN {
				break
			}
			l := core.Negative
			if core.Selects(tc.goal, tc.rel.Tuple(iN)) {
				l = core.Positive
			}
			if _, err := stFast.Apply(iN, l); err != nil {
				t.Fatal(err)
			}
			if _, err := stNaive.Apply(iN, l); err != nil {
				t.Fatal(err)
			}
		}
	}
}
