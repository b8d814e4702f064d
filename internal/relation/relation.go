// Package relation implements the relational substrate: schemas, typed
// tuples, and in-memory relations with bag semantics, plus CSV
// import/export. It is the storage layer underneath the JIM inference
// engine; relational-algebra operators live in package relalg.
package relation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/values"
)

// Schema is an ordered list of distinct attribute names.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema, rejecting empty or duplicate names.
func NewSchema(names ...string) (*Schema, error) {
	s := &Schema{
		names: make([]string, len(names)),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("relation: empty attribute name at position %d", i)
		}
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", n)
		}
		s.names[i] = n
		s.index[n] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically-known
// literals in tests and examples.
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.names) }

// Name returns the attribute name at position i.
func (s *Schema) Name(i int) string { return s.names[i] }

// Names returns a copy of the attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex is Index that panics if the attribute is absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("relation: no attribute %q in schema %v", name, s.names))
	}
	return i
}

// Indexes resolves several attribute names at once.
func (s *Schema) Indexes(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for k, n := range names {
		i, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("relation: no attribute %q in schema %v", n, s.names)
		}
		out[k] = i
	}
	return out, nil
}

// Prefixed returns a new schema with every name prefixed, e.g.
// "flights." + "To" → "flights.To". Used when building denormalized
// instances from several source relations.
func (s *Schema) Prefixed(prefix string) *Schema {
	names := make([]string, len(s.names))
	for i, n := range s.names {
		names[i] = prefix + n
	}
	out, err := NewSchema(names...)
	if err != nil {
		panic(err) // prefixing preserves distinctness
	}
	return out
}

// Concat joins two schemas; the combined names must stay distinct.
func (s *Schema) Concat(other *Schema) (*Schema, error) {
	return NewSchema(append(s.Names(), other.Names()...)...)
}

// Equal reports whether two schemas have identical names in order.
func (s *Schema) Equal(other *Schema) bool {
	if len(s.names) != len(other.names) {
		return false
	}
	for i := range s.names {
		if s.names[i] != other.names[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(a, b, c)".
func (s *Schema) String() string { return "(" + strings.Join(s.names, ", ") + ")" }

// Tuple is an ordered list of values matching a schema positionally.
type Tuple []values.Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports positionwise SQL equality (NULLs make tuples unequal).
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Identical reports positionwise structural equality (NULL == NULL).
func (t Tuple) Identical(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Identical(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by values.Compare.
func (t Tuple) Compare(u Tuple) int {
	for i := 0; i < len(t) && i < len(u); i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns a canonical string key for structural deduplication.
func (t Tuple) Key() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.GoString()
	}
	return strings.Join(parts, "\x1f")
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is an in-memory relation with bag semantics: a schema plus
// an ordered multiset of tuples.
type Relation struct {
	schema *Schema
	tuples []Tuple
}

// New returns an empty relation over the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Build constructs a relation from rows of Go values, converting each
// cell with values.Parse when given a string, or accepting
// values.Value directly. It is a convenience for tests and examples.
func Build(schema *Schema, rows ...[]any) (*Relation, error) {
	r := New(schema)
	for ri, row := range rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("relation: row %d has %d cells, schema has %d", ri, len(row), schema.Len())
		}
		t := make(Tuple, len(row))
		for ci, cell := range row {
			switch v := cell.(type) {
			case values.Value:
				t[ci] = v
			case string:
				t[ci] = values.Parse(v)
			case int:
				t[ci] = values.Int(int64(v))
			case int64:
				t[ci] = values.Int(v)
			case float64:
				t[ci] = values.Float(v)
			case bool:
				t[ci] = values.Bool(v)
			case nil:
				t[ci] = values.Null()
			default:
				return nil, fmt.Errorf("relation: row %d cell %d has unsupported type %T", ri, ci, cell)
			}
		}
		r.tuples = append(r.tuples, t)
	}
	return r, nil
}

// MustBuild is Build that panics on error.
func MustBuild(schema *Schema, rows ...[]any) *Relation {
	r, err := Build(schema, rows...)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the tuple at index i. The caller must not mutate it.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Append adds tuples, checking arity first: a batch holding a tuple of
// the wrong arity adds nothing. The tuple list grows at most once per
// call, and then at least doubles, so a relation streamed in batch by
// batch copies each tuple header O(1) times.
func (r *Relation) Append(ts ...Tuple) error {
	for _, t := range ts {
		if len(t) != r.schema.Len() {
			return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(t), r.schema.Len())
		}
	}
	if len(r.tuples)+len(ts) > cap(r.tuples) {
		grown := make([]Tuple, len(r.tuples), len(r.tuples)+max(len(ts), len(r.tuples)))
		copy(grown, r.tuples)
		r.tuples = grown
	}
	r.tuples = append(r.tuples, ts...)
	return nil
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(ts ...Tuple) {
	if err := r.Append(ts...); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := New(r.schema)
	out.tuples = make([]Tuple, len(r.tuples))
	for i, t := range r.tuples {
		out.tuples[i] = t.Clone()
	}
	return out
}

// Each calls fn for every tuple in order.
func (r *Relation) Each(fn func(i int, t Tuple)) {
	for i, t := range r.tuples {
		fn(i, t)
	}
}

// Sort orders tuples lexicographically in place (stable, deterministic
// output for goldens and dedup).
func (r *Relation) Sort() {
	sort.SliceStable(r.tuples, func(i, j int) bool {
		return r.tuples[i].Compare(r.tuples[j]) < 0
	})
}

// Distinct returns a new relation with structural duplicates removed,
// preserving first-occurrence order.
func (r *Relation) Distinct() *Relation {
	out := New(r.schema)
	seen := make(map[string]struct{}, len(r.tuples))
	for _, t := range r.tuples {
		k := t.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.tuples = append(out.tuples, t)
	}
	return out
}

// String renders the relation as an aligned ASCII table.
func (r *Relation) String() string {
	widths := make([]int, r.schema.Len())
	for i, n := range r.schema.names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.tuples))
	for ti, t := range r.tuples {
		row := make([]string, len(t))
		for ci, v := range t {
			row[ci] = v.String()
			if len(row[ci]) > widths[ci] {
				widths[ci] = len(row[ci])
			}
		}
		cells[ti] = row
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for ci, c := range row {
			if ci > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[ci]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.schema.names)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
