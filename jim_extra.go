package jim

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/relalg"
	"repro/internal/session"
)

// Source names one input relation of a join plan; see EvaluateJoin.
type Source = relalg.Source

// VersionSpace is the two-boundary summary of the consistent
// hypotheses; see core.VersionSpace.
type VersionSpace = core.VersionSpace

// FormatPairs renders attribute-position pairs as equality atoms
// ("A=B ∧ C=D") against the schema's names.
func FormatPairs(pairs [][2]int, names []string) string { return core.FormatPairs(pairs, names) }

// SessionMeta carries metadata saved with a session file.
type SessionMeta = session.Meta

// HesitantOracle wraps a labeler, abstaining ("I don't know") with the
// given probability. The engine defers abstained tuples and proposes
// others.
func HesitantOracle(inner Labeler, abstainProb float64, seed int64) Labeler {
	return oracle.Hesitant(inner, abstainProb, seed)
}

// ScriptedOracle answers from a fixed index→label map; useful for
// replaying recorded sessions.
func ScriptedOracle(answers map[int]Label) Labeler { return oracle.Scripted(answers) }

// ParseGoal parses a goal specification of the form "A=B,C=D" against
// a schema, closing the atoms under transitivity.
func ParseGoal(schema *Schema, spec string) (Predicate, error) {
	var pairs [][2]int
	for _, atom := range strings.Split(spec, ",") {
		atom = strings.TrimSpace(atom)
		if atom == "" {
			continue
		}
		lhs, rhs, ok := strings.Cut(atom, "=")
		if !ok {
			return Predicate{}, fmt.Errorf("jim: goal atom %q is not of the form A=B", atom)
		}
		idx, err := schema.Indexes(strings.TrimSpace(lhs), strings.TrimSpace(rhs))
		if err != nil {
			return Predicate{}, err
		}
		pairs = append(pairs, [2]int{idx[0], idx[1]})
	}
	return partition.FromPairs(schema.Len(), pairs)
}

// ParsePredicate reads a predicate in block notation ("{0}{1,3}{2,4}").
func ParsePredicate(s string) (Predicate, error) { return partition.Parse(s) }

// SaveSession persists the inference state and metadata as a JSON
// session file; see package session for the format guarantees.
func SaveSession(w io.Writer, st *State, meta SessionMeta) error {
	return session.Save(w, st, meta)
}

// LoadSession reconstructs an inference state from a session file by
// replaying its explicit labels. The file must hold exactly one JSON
// value; trailing data is an error.
func LoadSession(r io.Reader) (*State, SessionMeta, error) {
	return session.Load(r)
}

// EvaluateJoin runs an inferred predicate directly over the source
// relations with hash joins, without materializing the cross product
// it was inferred on. The denormalized schema must be the sources'
// schemas prefixed with "<name>." in order (as built by Prefix +
// CrossAll); the result is exactly the predicate-filtered cross
// product.
func EvaluateJoin(sources []Source, denormalized *Schema, q Predicate) (*Relation, error) {
	return relalg.EvaluateJoin(sources, denormalized, q)
}
