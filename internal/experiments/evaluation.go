package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/relalg"
	"repro/internal/relation"
	"repro/internal/sqlgen"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// runStrategies is E6: random vs local vs lookahead across instance
// complexity. The paper's claim: "for more complex instances and join
// queries a lookahead strategy performs better than a local one while
// for simpler instances and queries a local strategy is better" — here
// complexity is driven by attribute count, goal size, and signature
// diversity.
func runStrategies(opt Options) (*Result, error) {
	baseStrategies := []string{
		"random", "local-most-specific", "local-least-specific",
		"lookahead-maxmin", "lookahead-expected", "lookahead-entropy",
	}
	// lookahead-2's per-pick cost is quadratic in signature classes, so
	// it joins only the configurations where that stays interactive.
	withL2 := append(append([]string{}, baseStrategies...), "lookahead-2")

	type config struct {
		name        string
		attrs       int
		goalAtoms   int
		extraMerges float64
		tuples      int
		strategies  []string
	}
	configs := []config{
		{"simple (4 attrs, 1-atom goal)", 4, 1, 0.5, 120, withL2},
		{"medium (6 attrs, 2-atom goal)", 6, 2, 1.5, 200, withL2},
		{"complex (8 attrs, 3-atom goal)", 8, 3, 2.5, 300, baseStrategies},
	}
	if opt.Quick {
		configs = configs[:2]
		for i := range configs {
			configs[i].tuples = 60
		}
	}

	var tables []*stats.Table
	summary := &stats.Table{
		Title:  "Mean membership queries per strategy (lower is better; '-' = not run)",
		Header: append([]string{"instance"}, withL2...),
	}
	for _, cfg := range configs {
		perStrategy := make(map[string]*stats.Sample, len(cfg.strategies))
		for _, s := range cfg.strategies {
			perStrategy[s] = &stats.Sample{}
		}
		for trial := 0; trial < opt.Trials; trial++ {
			seed := opt.Seed + int64(trial)*101
			rel, goal, err := workload.Synthetic(workload.SynthConfig{
				Attrs: cfg.attrs, Tuples: cfg.tuples, GoalAtoms: cfg.goalAtoms,
				ExtraMerges: cfg.extraMerges, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			for _, name := range cfg.strategies {
				s, err := strategy.ByName(name, seed)
				if err != nil {
					return nil, err
				}
				st, err := core.NewState(rel)
				if err != nil {
					return nil, err
				}
				eng := core.NewEngine(st, s, oracle.Goal(goal))
				res, err := eng.Run()
				if err != nil {
					return nil, err
				}
				if !res.Converged || !core.InstanceEquivalent(rel, res.Query, goal) {
					return nil, fmt.Errorf("strategies: %s failed on %s (seed %d)", name, cfg.name, seed)
				}
				perStrategy[name].Add(float64(res.UserLabels))
			}
		}
		row := []any{cfg.name}
		detail := &stats.Table{
			Title:  cfg.name,
			Header: []string{"strategy", "questions (mean ± sd [min..max])"},
		}
		for _, s := range withL2 {
			sample, ran := perStrategy[s]
			if !ran {
				row = append(row, "-")
				continue
			}
			row = append(row, sample.Mean())
			detail.AddRow(s, sample.Summary())
		}
		summary.AddRow(row...)
		tables = append(tables, detail)
	}
	return &Result{
		Tables: append([]*stats.Table{summary}, tables...),
		Notes: []string{
			"expected shape: lookahead ≤ local ≤ random on complex instances; local competitive on simple ones",
		},
	}, nil
}

// ungroupedLookahead is the E7 ablation: lookahead-maxmin scored per
// tuple instead of per signature class, so selection cost scales with
// the number of tuples rather than the number of distinct signatures.
type ungroupedLookahead struct{}

func (ungroupedLookahead) Name() string { return "lookahead-maxmin-ungrouped" }

func (ungroupedLookahead) Pick(st *core.State) (int, bool) {
	best, bestScore := -1, -1.0
	for _, i := range st.InformativeIndices() {
		p, n := st.SimulatePrunesGroup(st.ClassOf(i))
		score := float64(min(p, n))*1e6 + float64(p+n)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

// runScalability is E7: per-interaction latency as the instance grows,
// with the signature-grouping ablation.
func runScalability(opt Options) (*Result, error) {
	sizes := []int{1000, 5000, 20000}
	if opt.Quick {
		sizes = []int{200, 1000}
	}
	table := &stats.Table{
		Title:  "Per-question selection latency, lookahead-maxmin (6 attributes)",
		Header: []string{"tuples", "distinct signatures", "questions", "grouped ms/question", "ungrouped ms/question", "speedup"},
	}
	for _, size := range sizes {
		rel, goal, err := workload.Synthetic(workload.SynthConfig{
			Attrs: 6, Tuples: size, Seed: opt.Seed, ExtraMerges: 1.5,
		})
		if err != nil {
			return nil, err
		}
		st, err := core.NewState(rel)
		if err != nil {
			return nil, err
		}
		sigCount := st.ClassCount()

		eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(goal))
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		grouped := time.Since(start)
		if !res.Converged {
			return nil, fmt.Errorf("scalability: grouped run did not converge at %d tuples", size)
		}

		st2, err := core.NewState(rel)
		if err != nil {
			return nil, err
		}
		eng2 := core.NewEngine(st2, ungroupedLookahead{}, oracle.Goal(goal))
		start = time.Now()
		res2, err := eng2.Run()
		if err != nil {
			return nil, err
		}
		ungrouped := time.Since(start)
		if !res2.Converged {
			return nil, fmt.Errorf("scalability: ungrouped run did not converge at %d tuples", size)
		}

		speedup := float64(ungrouped) / math.Max(float64(grouped), 1)
		table.AddRow(size, sigCount, res.UserLabels,
			msPer(grouped, res.UserLabels), msPer(ungrouped, res2.UserLabels),
			fmt.Sprintf("%.1fx", speedup))
	}
	return &Result{
		Tables: []*stats.Table{table},
		Notes: []string{
			"question counts are identical by construction; only selection cost differs",
			"grouped cost scales with distinct signatures (bounded by Bell(n)), ungrouped with tuples",
		},
	}, nil
}

// runCrowd is E8: noisy crowd inference cost against the label-
// everything baseline of entity-resolution-style crowd joins.
func runCrowd(opt Options) (*Result, error) {
	const price = 0.05
	tuples := 200
	if opt.Quick {
		tuples = 60
	}
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 6, Tuples: tuples, Seed: opt.Seed, ExtraMerges: 1.2,
	})
	if err != nil {
		return nil, err
	}
	table := &stats.Table{
		Title:  fmt.Sprintf("Crowdsourced join inference (%d tuples, $%.2f/answer, %d trials)", tuples, price, opt.Trials),
		Header: []string{"worker accuracy", "votes", "questions (mean)", "cost (mean $)", "all-pairs baseline $", "goal recovered", "result F1 (mean)", "majority err (analytic)"},
	}
	for _, accuracy := range []float64{1.0, 0.9, 0.8} {
		for _, votes := range []int{1, 3, 5} {
			var questions, cost, f1 stats.Sample
			recovered := 0
			for trial := 0; trial < opt.Trials; trial++ {
				seed := opt.Seed + int64(trial)*977
				workers, err := crowd.UniformWorkers(7, accuracy, seed)
				if err != nil {
					return nil, err
				}
				panel, err := crowd.NewPanel(oracle.Goal(goal), workers, votes, price, seed+13)
				if err != nil {
					return nil, err
				}
				st, err := core.NewState(rel)
				if err != nil {
					return nil, err
				}
				eng := core.NewEngine(st, strategy.LookaheadMaxMin(), panel)
				eng.OnConflict = core.SkipOnConflict
				res, err := eng.Run()
				if err != nil {
					return nil, err
				}
				questions.Add(float64(panel.Sheet().Questions))
				cost.Add(panel.Sheet().Cost)
				rep := quality.Evaluate(rel, res.Query, goal)
				f1.Add(rep.F1())
				if rep.Exact() {
					recovered++
				}
			}
			baseline := crowd.AllPairsBaseline(tuples, votes, price)
			table.AddRow(accuracy, votes, questions.Mean(), cost.Mean(),
				baseline.Cost,
				fmt.Sprintf("%d/%d", recovered, opt.Trials),
				fmt.Sprintf("%.3f", f1.Mean()),
				fmt.Sprintf("%.3f", crowd.MajorityErrorRate(accuracy, votes)))
		}
	}
	return &Result{
		Tables: []*stats.Table{table},
		Notes: []string{
			"JIM asks a fraction of the baseline's questions at every accuracy level",
			"majority voting buys accuracy: recovery rises with votes when workers are noisy",
		},
	}, nil
}

// runOptimal is E9: the exponential optimal strategy against the
// heuristics on growing (still tiny) instances.
func runOptimal(opt Options) (*Result, error) {
	sigCounts := []int{4, 6, 8, 10}
	if opt.Quick {
		sigCounts = []int{4, 6}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	table := &stats.Table{
		Title:  "Optimal (exact minimax) vs lookahead-maxmin on tiny instances",
		Header: []string{"distinct signatures", "optimal questions", "lookahead questions", "optimal ms/pick", "lookahead ms/pick", "states explored", "fallbacks"},
	}
	goals := 6
	if opt.Quick {
		goals = 3
	}
	for _, sigs := range sigCounts {
		rel, err := instanceWithSignatures(rng, 5, sigs)
		if err != nil {
			return nil, err
		}
		var optQ, lookQ stats.Sample
		var optTime, lookTime time.Duration
		var optPicks, lookPicks, explored, fallbacks int
		for g := 0; g < goals; g++ {
			goal := partition.RandomGoal(rng, 5, 1+g%3)
			optStrat := strategy.Optimal(500_000)
			st, err := core.NewState(rel)
			if err != nil {
				return nil, err
			}
			eng := core.NewEngine(st, optStrat, oracle.Goal(goal))
			start := time.Now()
			res, err := eng.Run()
			if err != nil {
				return nil, err
			}
			optTime += time.Since(start)
			optPicks += res.UserLabels
			optQ.Add(float64(res.UserLabels))
			explored += optStrat.Explored()
			fallbacks += optStrat.Fallbacks()

			st2, err := core.NewState(rel)
			if err != nil {
				return nil, err
			}
			eng2 := core.NewEngine(st2, strategy.LookaheadMaxMin(), oracle.Goal(goal))
			start = time.Now()
			res2, err := eng2.Run()
			if err != nil {
				return nil, err
			}
			lookTime += time.Since(start)
			lookPicks += res2.UserLabels
			lookQ.Add(float64(res2.UserLabels))
		}
		table.AddRow(sigs, optQ.Mean(), lookQ.Mean(),
			msPer(optTime, optPicks), msPer(lookTime, lookPicks), explored, fallbacks)
	}
	return &Result{
		Tables: []*stats.Table{table},
		Notes: []string{
			"the paper: the optimal strategy 'requires exponential time, which unfortunately renders it unusable in practice'",
			"expected shape: optimal asks no more questions, but its per-pick cost explodes with the signature count",
		},
	}, nil
}

// instanceWithSignatures builds an instance of n attributes with
// exactly k distinct signatures, one tuple each.
func instanceWithSignatures(rng *rand.Rand, n, k int) (*relation.Relation, error) {
	rel := relation.New(relation.MustSchema(workload.AttrNames(n)...))
	seen := map[string]bool{}
	for len(seen) < k {
		sig := partition.Uniform(rng, n)
		if seen[sig.Key()] {
			continue
		}
		seen[sig.Key()] = true
		rel.MustAppend(workload.TupleWithSig(sig))
	}
	return rel, nil
}

// runGAV is E10: infer a join over two source relations and render it
// as SQL and as a GAV schema mapping.
func runGAV(opt Options) (*Result, error) {
	flights := relation.MustBuild(relation.MustSchema("From", "To", "Airline"),
		[]any{"Paris", "Lille", "AF"},
		[]any{"Lille", "NYC", "AA"},
		[]any{"NYC", "Paris", "AA"},
		[]any{"Paris", "NYC", "AF"},
	)
	hotels := relation.MustBuild(relation.MustSchema("City", "Discount"),
		[]any{"NYC", "AA"},
		[]any{"Paris", "None"},
		[]any{"Lille", "AF"},
	)
	inst, err := relalg.Cross(relalg.Prefix(flights, "flights."), relalg.Prefix(hotels, "hotels."))
	if err != nil {
		return nil, err
	}
	schema := inst.Schema()
	goal, err := partition.FromBlocks(schema.Len(), [][]int{
		{schema.MustIndex("flights.To"), schema.MustIndex("hotels.City")},
		{schema.MustIndex("flights.Airline"), schema.MustIndex("hotels.Discount")},
	})
	if err != nil {
		return nil, err
	}
	st, err := core.NewState(inst)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(goal))
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	if !res.Converged || !core.InstanceEquivalent(inst, res.Query, goal) {
		return nil, fmt.Errorf("gav: inference failed: %v", res.Query)
	}
	joinSQL, err := sqlgen.JoinSQL(schema, res.Query)
	if err != nil {
		return nil, err
	}
	gav, err := sqlgen.GAVMapping("packages", schema, res.Query)
	if err != nil {
		return nil, err
	}
	table := &stats.Table{
		Title:  "Schema-mapping inference over flights × hotels",
		Header: []string{"metric", "value"},
	}
	table.AddRow("source relations", "flights(From,To,Airline), hotels(City,Discount)")
	table.AddRow("denormalized instance", fmt.Sprintf("%d tuples", inst.Len()))
	table.AddRow("membership queries", res.UserLabels)
	table.AddRow("inferred predicate", res.Query.FormatAtoms(schema.Names()))
	return &Result{
		Tables: []*stats.Table{table},
		Notes: []string{
			"as multi-relation SQL:\n" + joinSQL,
			"as GAV mapping: " + gav,
		},
	}, nil
}
