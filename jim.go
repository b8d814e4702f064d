// Package jim is the public API of the JIM (Join Inference Machine)
// library, a from-scratch Go reproduction of "Interactive Join Query
// Inference with JIM" (Bonifati, Ciucanu, Staworko; PVLDB 7(13), 2014).
//
// JIM infers an n-ary equi-join predicate over a denormalized instance
// by asking the user Boolean membership queries: "should this tuple be
// part of the join result?". After each yes/no answer it grays out the
// tuples whose label is now implied (uninformative tuples) and uses a
// strategy to pick the next most informative tuple, so the goal query
// is identified with a minimal number of interactions.
//
// # Quick start
//
//	rel, _ := jim.ReadCSV(file)            // denormalized instance
//	st, _ := jim.NewState(rel)             // inference state
//	eng := jim.NewEngine(st,
//	    jim.MustStrategy("lookahead-maxmin", 0),
//	    jim.InteractiveUser(os.Stdin, os.Stdout))
//	res, _ := eng.Run()                    // interactive loop (Fig. 2)
//	sql, _ := jim.SelectSQL("t", rel.Schema(), res.Query)
//
// For programmatic users (experiments, crowdsourcing simulations) the
// oracle labelers in this package answer according to a known goal
// query, optionally with noise.
//
// The deeper layers are available underneath this facade:
// internal/core (engine), internal/partition (the predicate lattice),
// internal/strategy, internal/oracle, internal/crowd, internal/relalg,
// internal/sqlgen, internal/workload, internal/setgame, and
// internal/experiments for the paper's figures.
package jim

import (
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/relalg"
	"repro/internal/relation"
	"repro/internal/sqlgen"
	"repro/internal/strategy"
	"repro/internal/values"
)

// Core data types re-exported from the implementation packages.
type (
	// Value is a typed scalar (NULL, bool, int, float, string).
	Value = values.Value
	// Tuple is an ordered list of values.
	Tuple = relation.Tuple
	// Schema is an ordered list of distinct attribute names.
	Schema = relation.Schema
	// Relation is an in-memory relation with bag semantics.
	Relation = relation.Relation
	// Batch is a run of parsed tuples in a relation's columnar layout,
	// as Session.ParseRows and ParseCSV return and Session.Append adopts.
	Batch = relation.Batch
	// Predicate is an equi-join predicate, canonically a partition of
	// the attribute set: attributes in one block must be equal.
	Predicate = partition.P
	// State is the inference state: instance, labels, and the
	// consistent-hypothesis summary.
	State = core.State
	// Engine drives the interactive membership-query loop.
	Engine = core.Engine
	// RunResult summarizes an interactive session.
	RunResult = core.RunResult
	// StepStat records one user interaction.
	StepStat = core.StepStat
	// Label classifies a tuple (explicit or implied, positive or
	// negative).
	Label = core.Label
	// Progress summarizes labeling progress for UIs.
	Progress = core.Progress
	// Picker is a strategy choosing the next informative tuple.
	Picker = core.Picker
	// KPicker additionally ranks the top-k informative tuples.
	KPicker = core.KPicker
	// Labeler answers membership queries (a user, oracle, or crowd).
	Labeler = core.Labeler
	// CSVOptions controls CSV import.
	CSVOptions = relation.CSVOptions
	// Typing records per-column parsing rules of a typed CSV header;
	// sessions pin it so streamed-in cells parse like creation cells.
	Typing = relation.Typing
	// Explanation justifies a tuple's current label ("why is this
	// grayed out?").
	Explanation = core.Explanation
	// AnswerOutcome reports what one accepted Session answer did.
	AnswerOutcome = core.AnswerOutcome
	// ConflictPolicy decides what a session does with a label that
	// contradicts earlier labels.
	ConflictPolicy = core.ConflictPolicy
	// JoinOn is an equality condition for EquiJoin.
	JoinOn = relalg.JoinOn
)

// Labels.
const (
	Unlabeled       = core.Unlabeled
	Positive        = core.Positive
	Negative        = core.Negative
	ImpliedPositive = core.ImpliedPositive
	ImpliedNegative = core.ImpliedNegative
)

// ErrStopped is returned by labelers when the user quits; engine runs
// report it as RunResult.Stopped rather than an error. The taxonomy of
// API failures lives in errors.go (Error, ErrorCode, and the
// per-code sentinels such as ErrInconsistent).
var ErrStopped = core.ErrStopped

// Conflict policies for engines driven by noisy labelers.
const (
	FailOnConflict = core.FailOnConflict
	SkipOnConflict = core.SkipOnConflict
)

// NewSchema builds a schema, rejecting empty or duplicate names.
func NewSchema(names ...string) (*Schema, error) { return relation.NewSchema(names...) }

// NewRelation returns an empty relation over the schema.
func NewRelation(schema *Schema) *Relation { return relation.New(schema) }

// ReadCSV reads a relation from CSV; see relation.ReadCSV for header
// type annotations ("price:float").
func ReadCSV(r io.Reader) (*Relation, error) { return relation.ReadCSV(r, relation.CSVOptions{}) }

// ReadCSVWith reads a relation from CSV with explicit options.
func ReadCSVWith(r io.Reader, opts CSVOptions) (*Relation, error) { return relation.ReadCSV(r, opts) }

// ReadCSVTyped reads a relation from CSV and returns the per-column
// typing its header established — hand it to WithTyping so tuples
// streamed into the session later parse exactly like creation cells.
func ReadCSVTyped(r io.Reader, opts CSVOptions) (*Relation, *Typing, error) {
	return relation.ReadCSVTyped(r, opts)
}

// WriteCSV writes a relation as CSV.
func WriteCSV(w io.Writer, rel *Relation) error { return relation.WriteCSV(w, rel) }

// NewState indexes a denormalized instance for inference.
func NewState(rel *Relation) (*State, error) {
	st, err := core.NewState(rel)
	return st, wrapCoreErr(err)
}

// NewEngine builds an interactive engine over a state, a strategy, and
// a labeler.
func NewEngine(st *State, picker Picker, labeler Labeler) *Engine {
	return core.NewEngine(st, picker, labeler)
}

// Strategies lists the available strategy names.
func Strategies() []string { return strategy.Names() }

// Strategy builds a strategy by name ("random", "local-most-specific",
// "local-least-specific", "lookahead-maxmin", "lookahead-expected",
// "lookahead-entropy", "optimal"). The seed feeds the random strategy.
// Unrecognized names fail with CodeUnknownStrategy.
func Strategy(name string, seed int64) (KPicker, error) {
	s, err := strategy.ByName(name, seed)
	if err != nil {
		return nil, wrapCoreErr(err)
	}
	return s, nil
}

// MustStrategy is Strategy that panics on an unknown name.
func MustStrategy(name string, seed int64) KPicker {
	s, err := strategy.ByName(name, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// GoalOracle returns a labeler that answers according to a goal
// predicate — the "program that labels tuples w.r.t. a goal join
// query" used in the paper's experiments.
func GoalOracle(goal Predicate) Labeler { return oracle.Goal(goal) }

// NoisyOracle wraps a labeler, flipping each answer with probability
// flip — an unreliable crowd worker.
func NoisyOracle(inner Labeler, flip float64, seed int64) Labeler {
	return oracle.Noisy(inner, flip, seed)
}

// InteractiveUser returns a labeler that prompts a human on w and
// reads y/n/q answers from r.
func InteractiveUser(r io.Reader, w io.Writer) Labeler { return oracle.Interactive(r, w) }

// Bottom returns the most general predicate over n attributes (no
// equality constraints; selects every tuple).
func Bottom(n int) Predicate { return partition.Bottom(n) }

// Top returns the most specific predicate over n attributes (all
// attributes equal).
func Top(n int) Predicate { return partition.Top(n) }

// PredicateFromPairs builds a predicate from equality atoms given as
// attribute-position pairs, closed under transitivity.
func PredicateFromPairs(n int, pairs [][2]int) (Predicate, error) {
	return partition.FromPairs(n, pairs)
}

// PredicateFromAtoms builds a predicate from equality atoms given as
// attribute-name pairs resolved against a schema.
func PredicateFromAtoms(schema *Schema, atoms [][2]string) (Predicate, error) {
	pairs := make([][2]int, len(atoms))
	for k, a := range atoms {
		idx, err := schema.Indexes(a[0], a[1])
		if err != nil {
			return Predicate{}, err
		}
		pairs[k] = [2]int{idx[0], idx[1]}
	}
	return partition.FromPairs(schema.Len(), pairs)
}

// RandomPredicate draws a uniformly random predicate over n attributes.
func RandomPredicate(r *rand.Rand, n int) Predicate { return partition.Uniform(r, n) }

// SigOf computes Eq(t): the partition induced by value equality inside
// the tuple.
func SigOf(t Tuple) Predicate { return core.SigOf(t) }

// Selects reports whether the predicate selects the tuple.
func Selects(q Predicate, t Tuple) bool { return core.Selects(q, t) }

// SelectTuples returns the indices of the tuples selected by q — the
// join result over the instance.
func SelectTuples(rel *Relation, q Predicate) []int { return core.SelectTuples(rel, q) }

// InstanceEquivalent reports whether two predicates select the same
// tuples of rel.
func InstanceEquivalent(rel *Relation, a, b Predicate) bool {
	return core.InstanceEquivalent(rel, a, b)
}

// Where renders the predicate's equality atoms as a SQL WHERE clause
// over a single denormalized table.
func Where(schema *Schema, q Predicate) (string, error) { return sqlgen.Where(schema, q) }

// SelectSQL renders the full single-table SQL query.
func SelectSQL(table string, schema *Schema, q Predicate) (string, error) {
	return sqlgen.SelectSQL(table, schema, q)
}

// JoinSQL renders the predicate as a multi-relation SQL join using
// "rel.attr" attribute-name provenance.
func JoinSQL(schema *Schema, q Predicate) (string, error) { return sqlgen.JoinSQL(schema, q) }

// GAVMapping renders the predicate as a GAV schema mapping over the
// source relations encoded in the attribute names.
func GAVMapping(target string, schema *Schema, q Predicate) (string, error) {
	return sqlgen.GAVMapping(target, schema, q)
}

// Prefix returns rel with every attribute name prefixed, the standard
// preparation before Cross.
func Prefix(rel *Relation, prefix string) *Relation { return relalg.Prefix(rel, prefix) }

// Cross returns the cross product of two relations with disjoint
// attribute names — the denormalized instance of two sources.
func Cross(a, b *Relation) (*Relation, error) { return relalg.Cross(a, b) }

// CrossAll builds the denormalized instance of several relations.
func CrossAll(rels ...*Relation) (*Relation, error) { return relalg.CrossAll(rels...) }

// EquiJoin joins two relations on explicit attribute equalities.
func EquiJoin(a, b *Relation, on []JoinOn) (*Relation, error) { return relalg.EquiJoin(a, b, on) }

// Infer runs a complete non-interactive inference: it drives the
// engine with the named strategy and a goal oracle until convergence
// and returns the session result. It is the one-call entry point used
// by experiments and examples.
func Infer(rel *Relation, goal Predicate, strategyName string, seed int64) (RunResult, error) {
	s, err := Strategy(strategyName, seed)
	if err != nil {
		return RunResult{}, err
	}
	st, err := NewState(rel)
	if err != nil {
		return RunResult{}, err
	}
	eng := core.NewEngine(st, s, oracle.Goal(goal))
	return eng.Run()
}
