package workload_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func TestTravelMatchesPaperFigure1(t *testing.T) {
	rel := workload.Travel()
	if rel.Len() != 12 {
		t.Fatalf("travel instance has %d tuples, want 12", rel.Len())
	}
	if got := rel.Schema().Names(); len(got) != 5 || got[0] != "From" || got[4] != "Discount" {
		t.Errorf("schema = %v", got)
	}
	// Spot checks against Figure 1.
	t3 := rel.Tuple(2)
	if t3.String() != "(Paris, Lille, AF, Lille, AF)" {
		t.Errorf("tuple (3) = %v", t3)
	}
	t8 := rel.Tuple(7)
	if t8.String() != "(NYC, Paris, AA, Paris, None)" {
		t.Errorf("tuple (8) = %v", t8)
	}
}

func TestTravelGoals(t *testing.T) {
	q1, q2 := workload.TravelQ1(), workload.TravelQ2()
	if !q1.Less(q2) {
		t.Error("Q1 should be strictly more general than Q2")
	}
	if q1.PairCount() != 1 || q2.PairCount() != 2 {
		t.Errorf("pair counts = %d, %d", q1.PairCount(), q2.PairCount())
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, _, err := workload.Synthetic(workload.SynthConfig{Attrs: 1, Tuples: 5}); err == nil {
		t.Error("1 attribute accepted")
	}
	if _, _, err := workload.Synthetic(workload.SynthConfig{Attrs: 4, Tuples: 0}); err == nil {
		t.Error("0 tuples accepted")
	}
}

func TestSyntheticShapeAndDeterminism(t *testing.T) {
	cfg := workload.SynthConfig{Attrs: 6, Tuples: 50, Seed: 9}
	rel, goal, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 50 || rel.Schema().Len() != 6 {
		t.Fatalf("shape = %d×%d", rel.Len(), rel.Schema().Len())
	}
	if goal.N() != 6 {
		t.Errorf("goal size = %d", goal.N())
	}
	rel2, goal2, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !goal.Equal(goal2) {
		t.Error("same seed, different goals")
	}
	for i := 0; i < rel.Len(); i++ {
		if !rel.Tuple(i).Identical(rel2.Tuple(i)) {
			t.Fatalf("same seed, different tuple %d", i)
		}
	}
	rel3, _, _ := workload.Synthetic(workload.SynthConfig{Attrs: 6, Tuples: 50, Seed: 10})
	same := true
	for i := 0; i < rel.Len(); i++ {
		if !rel.Tuple(i).Identical(rel3.Tuple(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical instances")
	}
}

func TestSyntheticPlantedGoalIsConsistent(t *testing.T) {
	rel, goal, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 5, Tuples: 60, Seed: 4, PosRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Forced-positive tuples must be selected by the goal; the PosRate
	// guarantees a healthy share of positives.
	selected := len(core.SelectTuples(rel, goal))
	if selected < 10 {
		t.Errorf("only %d/60 tuples selected by planted goal", selected)
	}
	if selected == 60 {
		t.Error("goal selects everything; instance carries no signal")
	}
}

func TestSyntheticFixedGoalHonored(t *testing.T) {
	goal := partition.MustFromBlocks(4, [][]int{{0, 2}})
	_, got, err := workload.Synthetic(workload.SynthConfig{
		Attrs: 4, Tuples: 10, Seed: 1, Goal: goal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(goal) {
		t.Errorf("returned goal %v, want %v", got, goal)
	}
}

func TestSyntheticInferenceRecoversGoal(t *testing.T) {
	f := func(seed int64) bool {
		rel, goal, err := workload.Synthetic(workload.SynthConfig{
			Attrs: 5, Tuples: 40, Seed: seed, ExtraMerges: 1.5,
		})
		if err != nil {
			return false
		}
		st, err := core.NewState(rel)
		if err != nil {
			return false
		}
		eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(goal))
		res, err := eng.Run()
		if err != nil {
			return false
		}
		return res.Converged && core.InstanceEquivalent(rel, res.Query, goal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAttrNames(t *testing.T) {
	names := workload.AttrNames(3)
	if len(names) != 3 || names[0] != "a0" || names[2] != "a2" {
		t.Errorf("AttrNames = %v", names)
	}
}

func TestTupleWithSig(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		sig := partition.Uniform(r, 2+r.Intn(8))
		tup := workload.TupleWithSig(sig)
		if got := core.SigOf(tup); !got.Equal(sig) {
			t.Fatalf("TupleWithSig(%v) has signature %v", sig, got)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := workload.Zipf(workload.ZipfConfig{Attrs: 1, Tuples: 5}); err == nil {
		t.Error("1 attribute accepted")
	}
	if _, err := workload.Zipf(workload.ZipfConfig{Attrs: 4, Tuples: 0}); err == nil {
		t.Error("0 tuples accepted")
	}
	if _, err := workload.Zipf(workload.ZipfConfig{Attrs: 4, Tuples: 5, Vocab: 1}); err == nil {
		t.Error("vocabulary of 1 accepted")
	}
	if _, err := workload.Zipf(workload.ZipfConfig{Attrs: 4, Tuples: 5, S: 0.5}); err == nil {
		t.Error("exponent <= 1 accepted")
	}
}

func TestZipfSkewCreatesEqualities(t *testing.T) {
	rel, err := workload.Zipf(workload.ZipfConfig{Attrs: 5, Tuples: 200, Vocab: 12, S: 1.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 200 || rel.Schema().Len() != 5 {
		t.Fatalf("shape = %d×%d", rel.Len(), rel.Schema().Len())
	}
	// Skewed draws must produce both constrained and unconstrained
	// signatures.
	withEq, withoutEq := 0, 0
	for i := 0; i < rel.Len(); i++ {
		if core.SigOf(rel.Tuple(i)).PairCount() > 0 {
			withEq++
		} else {
			withoutEq++
		}
	}
	if withEq == 0 || withoutEq == 0 {
		t.Errorf("degenerate skew: %d with equalities, %d without", withEq, withoutEq)
	}
	// Inference over a Zipf instance works with any goal the oracle
	// answers for.
	goal := partition.MustFromBlocks(5, [][]int{{0, 2}})
	st, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(goal))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !core.InstanceEquivalent(rel, res.Query, goal) {
		t.Errorf("zipf inference failed: %v", res.Query)
	}
}

func TestWithDuplicates(t *testing.T) {
	base, _, err := workload.Synthetic(workload.SynthConfig{Attrs: 4, Tuples: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := workload.WithDuplicates(base, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if big.Len() != 100 {
		t.Fatalf("len = %d", big.Len())
	}
	// The first 10 tuples are the originals; every extra is a copy.
	if big.Distinct().Len() > base.Len() {
		t.Errorf("duplicates introduced new tuples: %d distinct", big.Distinct().Len())
	}
	// Signature groups must reflect multiplicities.
	st, err := core.NewState(big)
	if err != nil {
		t.Fatal(err)
	}
	if st.ClassCount() > base.Len() {
		t.Errorf("groups = %d, want <= %d", st.ClassCount(), base.Len())
	}
	if _, err := workload.WithDuplicates(base, 5, 1); err == nil {
		t.Error("total below source accepted")
	}
	empty := relation.New(relation.MustSchema("a"))
	if _, err := workload.WithDuplicates(empty, 5, 1); err == nil {
		t.Error("empty source accepted")
	}
}

func TestStarValidation(t *testing.T) {
	if _, err := workload.NewStar(workload.StarConfig{Dims: 0, DimRows: 2, Rows: 2}); err == nil {
		t.Error("0 dims accepted")
	}
	if _, err := workload.NewStar(workload.StarConfig{Dims: 1, DimRows: 0, Rows: 2}); err == nil {
		t.Error("0 dim rows accepted")
	}
	if _, err := workload.NewStar(workload.StarConfig{Dims: 1, DimRows: 2, Rows: 0}); err == nil {
		t.Error("0 rows accepted")
	}
}

func TestStarShapeAndGoal(t *testing.T) {
	star, err := workload.NewStar(workload.StarConfig{
		Dims: 2, DimRows: 4, DimAttrs: 1, FactAttrs: 1, Rows: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Schema: fact(id + 2 fk + 1 attr) + 2 dims × (id + 1 attr) = 8.
	if star.Instance.Schema().Len() != 8 {
		t.Fatalf("instance arity = %d", star.Instance.Schema().Len())
	}
	if star.Instance.Len() != 60 {
		t.Errorf("instance rows = %d", star.Instance.Len())
	}
	if len(star.Dims) != 2 || star.Fact == nil {
		t.Error("sources missing")
	}
	if star.Goal.PairCount() != 2 {
		t.Errorf("goal pairs = %d, want 2 fk=id atoms", star.Goal.PairCount())
	}
	// Goal selects exactly the rows where both dims match.
	sel := core.SelectTuples(star.Instance, star.Goal)
	if len(sel) == 0 || len(sel) == star.Instance.Len() {
		t.Errorf("goal selects %d/%d rows; need a non-trivial split", len(sel), star.Instance.Len())
	}
}

func TestStarInferenceRecoversFKJoin(t *testing.T) {
	star, err := workload.NewStar(workload.StarConfig{
		Dims: 2, DimRows: 5, DimAttrs: 1, FactAttrs: 1, Rows: 80, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(star.Instance)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st, strategy.LookaheadMaxMin(), oracle.Goal(star.Goal))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("star inference did not converge")
	}
	if !core.InstanceEquivalent(star.Instance, res.Query, star.Goal) {
		t.Errorf("inferred %v, want equivalent of %v", res.Query, star.Goal)
	}
}
