// Package relation implements the relational substrate: schemas, typed
// tuples, and in-memory relations with bag semantics, plus CSV
// import/export. It is the storage layer underneath the JIM inference
// engine; relational-algebra operators live in package relalg.
package relation

import (
	"fmt"
	"slices"
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
//
// The tuples are stored as a list of batch chunks: appending a batch
// adds one chunk and never copies the tuple headers already stored, so
// a session streamed in batch by batch holds each header exactly once
// and allocates per batch only what it keeps. Read paths never write
// to the relation (sessions read it under a shared lock); only Sort
// flattens the chunks into one.
type Relation struct {
	schema *Schema
	chunks []chunk
	n      int // number of tuples, across all chunks
}

// chunk is one stored batch: its tuples, the first at index first.
type chunk struct {
	first  int
	tuples []Tuple
}

// smallChunk is the largest chunk that later batches extend in place
// (growing it by doubling) instead of opening a chunk of their own, so
// a relation streamed in row by row keeps few chunks while no append
// copies more than smallChunk earlier headers.
const smallChunk = 1024

// New returns an empty relation over the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Build constructs a relation from rows of Go values, converting each
// cell with values.Parse when given a string, or accepting
// values.Value directly. It is a convenience for tests and examples.
func Build(schema *Schema, rows ...[]any) (*Relation, error) {
	tuples := make([]Tuple, len(rows))
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
		tuples[ri] = t
	}
	r := New(schema)
	r.appendChunk(tuples, true)
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
func (r *Relation) Len() int { return r.n }

// Tuple returns the tuple at index i. The caller must not mutate it.
// A relation of one chunk indexes it directly; otherwise the chunk is
// found by binary search over the chunk starts.
func (r *Relation) Tuple(i int) Tuple {
	if len(r.chunks) == 1 {
		return r.chunks[0].tuples[i]
	}
	lo, hi := 0, len(r.chunks) // the last chunk starting at or before i
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.chunks[m].first <= i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	c := r.chunks[lo-1]
	return c.tuples[i-c.first]
}

// Append adds tuples, checking arity first: a batch holding a tuple of
// the wrong arity adds nothing. The batch's tuple headers are copied
// into one chunk of exactly the batch's size (or, while the relation's
// last chunk is small, onto that chunk), so the caller may reuse ts;
// the tuples themselves are kept, not copied. Earlier headers are
// never copied again.
func (r *Relation) Append(ts ...Tuple) error {
	if err := r.checkArity(ts); err != nil {
		return err
	}
	r.appendChunk(ts, false)
	return nil
}

// AppendOwned is Append that takes ownership of ts: a batch too large
// for the last chunk becomes a chunk as it is, with no copy. The caller
// must not use ts afterwards. It is the ingest path of a freshly
// parsed batch (ParseRows), which nothing else refers to.
func (r *Relation) AppendOwned(ts []Tuple) error {
	if err := r.checkArity(ts); err != nil {
		return err
	}
	r.appendChunk(ts, true)
	return nil
}

func (r *Relation) checkArity(ts []Tuple) error {
	for _, t := range ts {
		if len(t) != r.schema.Len() {
			return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(t), r.schema.Len())
		}
	}
	return nil
}

// appendChunk stores ts after the relation's tuples: on the last chunk
// when the result stays within smallChunk (or within the chunk's spare
// capacity), otherwise as a new chunk — ts itself when owned, an
// exact-size copy of it when not.
func (r *Relation) appendChunk(ts []Tuple, owned bool) {
	if len(ts) == 0 {
		return
	}
	if k := len(r.chunks) - 1; k >= 0 {
		last := r.chunks[k].tuples
		if need := len(last) + len(ts); need <= cap(last) || need <= smallChunk {
			if need > cap(last) {
				grown := make([]Tuple, len(last), min(max(2*len(last), need), smallChunk))
				copy(grown, last)
				last = grown
			}
			r.chunks[k].tuples = append(last, ts...)
			r.n += len(ts)
			return
		}
	}
	if !owned {
		ts = slices.Clone(ts)
	}
	r.chunks = append(r.chunks, chunk{first: r.n, tuples: ts})
	r.n += len(ts)
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(ts ...Tuple) {
	if err := r.Append(ts...); err != nil {
		panic(err)
	}
}

// EachChunk calls fn for every stored chunk in order, with the index of
// its first tuple: the batch-at-a-time walk of the relation. ts is the
// relation's own storage; fn must not mutate or keep it.
func (r *Relation) EachChunk(fn func(first int, ts []Tuple)) {
	for _, c := range r.chunks {
		fn(c.first, c.tuples)
	}
}

// Clone returns a deep copy of the relation, stored as one chunk.
func (r *Relation) Clone() *Relation {
	tuples := make([]Tuple, 0, r.n)
	for _, c := range r.chunks {
		for _, t := range c.tuples {
			tuples = append(tuples, t.Clone())
		}
	}
	out := New(r.schema)
	out.appendChunk(tuples, true)
	return out
}

// Each calls fn for every tuple in order.
func (r *Relation) Each(fn func(i int, t Tuple)) {
	for _, c := range r.chunks {
		for j, t := range c.tuples {
			fn(c.first+j, t)
		}
	}
}

// Sort orders tuples lexicographically in place (stable, deterministic
// output for goldens and dedup). It first flattens the chunks into one.
func (r *Relation) Sort() {
	if len(r.chunks) > 1 {
		flat := make([]Tuple, 0, r.n)
		for _, c := range r.chunks {
			flat = append(flat, c.tuples...)
		}
		r.chunks = []chunk{{tuples: flat}}
	}
	if len(r.chunks) == 0 {
		return
	}
	ts := r.chunks[0].tuples
	sort.SliceStable(ts, func(i, j int) bool {
		return ts[i].Compare(ts[j]) < 0
	})
}

// Distinct returns a new relation with structural duplicates removed,
// preserving first-occurrence order.
func (r *Relation) Distinct() *Relation {
	seen := make(map[string]struct{}, r.n)
	var kept []Tuple
	r.Each(func(_ int, t Tuple) {
		k := t.Key()
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		kept = append(kept, t)
	})
	out := New(r.schema)
	out.appendChunk(kept, true)
	return out
}

// String renders the relation as an aligned ASCII table.
func (r *Relation) String() string {
	widths := make([]int, r.schema.Len())
	for i, n := range r.schema.names {
		widths[i] = len(n)
	}
	cells := make([][]string, r.n)
	r.Each(func(ti int, t Tuple) {
		row := make([]string, len(t))
		for ci, v := range t {
			row[ci] = v.String()
			if len(row[ci]) > widths[ci] {
				widths[ci] = len(row[ci])
			}
		}
		cells[ti] = row
	})
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
