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
	"unsafe"

	"repro/internal/values"
)

// Schema is an ordered list of distinct attribute names. It keeps the
// names and no index over them, so a session's schema is one slice: a
// lookup by name scans the names, and no caller looks names up per
// tuple.
type Schema struct {
	names []string
}

// NewSchema builds a schema, rejecting empty or duplicate names.
// Both are found in a sorted copy of the names, which lives on the
// stack for schemas of up to 16 attributes; only a rejected header is
// scanned again, in column order, for the error (schemaError).
func NewSchema(names ...string) (*Schema, error) {
	var buf [16]string
	sorted := append(buf[:0], names...)
	slices.Sort(sorted)
	for i := range sorted {
		if sorted[i] == "" || i > 0 && sorted[i] == sorted[i-1] {
			return nil, schemaError(names)
		}
	}
	return &Schema{names: append([]string(nil), names...)}, nil
}

// schemaError names the first fault of a rejected header in column
// order: an empty name, or a name that repeats an earlier one.
func schemaError(names []string) error {
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		if n == "" {
			return fmt.Errorf("relation: empty attribute name at position %d", i)
		}
		if seen[n] {
			return fmt.Errorf("relation: duplicate attribute %q", n)
		}
		seen[n] = true
	}
	panic("relation: schemaError on a valid header")
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
	for i, n := range s.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// MustIndex is Index that panics if the attribute is absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.Index(name)
	if !ok {
		panic(fmt.Sprintf("relation: no attribute %q in schema %v", name, s.names))
	}
	return i
}

// Indexes resolves several attribute names at once.
func (s *Schema) Indexes(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for k, n := range names {
		i, ok := s.Index(n)
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
// The tuples are stored as a list of chunks, each one Batch: a kind
// column, a payload-word column and one string arena, so the relation
// holds no pointer per cell or per tuple and the collector scans a few
// words per chunk. Appending a batch adopts it as a chunk (or, while
// the last chunk is small, copies it onto that chunk) and never copies
// earlier cells, so a session streamed in batch by batch allocates per
// batch only what it keeps. Tuples are materialised on read: Tuple and
// Each build Values from the columns, a string cell a view into its
// chunk's arena. Read paths never write to the relation (sessions read
// it under a shared lock); only Sort rebuilds the chunks, as one.
type Relation struct {
	schema *Schema
	chunks []chunk
	n      int // number of tuples, across all chunks
	// tail, when not nil, is the last chunk's arena as a byte buffer
	// with room to grow: the arena string views its first len(tail)
	// bytes, and appending writes only past them, so no string already
	// handed out changes. It lets strings land on a small last chunk
	// without copying its arena every time.
	tail []byte
}

// chunk is one stored batch, its first tuple at index first.
type chunk struct {
	first int
	Batch
}

// smallChunk is the largest chunk, in rows, that later batches extend
// in place (growing it by doubling) instead of opening a chunk of their
// own, so a relation streamed in row by row keeps few chunks while no
// append copies more than smallChunk earlier rows.
const smallChunk = 1024

// New returns an empty relation over the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Build constructs a relation from rows of Go values, converting each
// cell with values.Parse when given a string, or accepting
// values.Value directly. It is a convenience for tests and examples.
func Build(schema *Schema, rows ...[]any) (*Relation, error) {
	bb := newBatchBuilder(schema.Len(), len(rows))
	t := make(Tuple, schema.Len())
	for ri, row := range rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("relation: row %d has %d cells, schema has %d", ri, len(row), schema.Len())
		}
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
		bb.addRow(t)
	}
	r := New(schema)
	r.adopt(bb.batch())
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

// locate returns the chunk holding tuple i and the tuple's row in it.
// A relation of one chunk indexes it directly; otherwise the chunk is
// found by binary search over the chunk starts.
func (r *Relation) locate(i int) (*chunk, int) {
	if len(r.chunks) == 1 {
		return &r.chunks[0], i
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
	c := &r.chunks[lo-1]
	return c, i - c.first
}

// Tuple returns the tuple at index i, materialised into a fresh
// Tuple: it allocates, so it is for the edges of the system (tests,
// examples, one-off reads). Hot readers use Cell, AppendTuple or Each.
func (r *Relation) Tuple(i int) Tuple {
	return r.AppendTuple(make(Tuple, 0, r.schema.Len()), i)
}

// AppendTuple appends the cells of tuple i to dst and returns the
// extended tuple; with a reused dst it allocates nothing.
func (r *Relation) AppendTuple(dst Tuple, i int) Tuple {
	c, row := r.locate(i)
	return c.AppendTuple(dst, row)
}

// Cell returns cell c of tuple i.
func (r *Relation) Cell(i, c int) values.Value {
	ch, row := r.locate(i)
	return ch.Cell(row, c)
}

// Append adds tuples, checking arity first: a batch holding a tuple of
// the wrong arity adds nothing. The cells are copied into the
// relation's columns, so the caller may reuse ts and its tuples.
func (r *Relation) Append(ts ...Tuple) error {
	if err := checkArity(r.schema.Len(), ts); err != nil {
		return err
	}
	if len(ts) == 0 {
		return nil
	}
	bb, reopened := r.reopen(len(ts))
	if !reopened {
		bb = newBatchBuilder(r.schema.Len(), len(ts))
	}
	for _, t := range ts {
		bb.addRow(t)
	}
	if reopened {
		r.close(bb)
	} else {
		r.adopt(bb.batch())
	}
	return nil
}

// AppendBatch adds the tuples of b, a batch of the schema's arity,
// taking ownership of it: a batch too large for the last chunk becomes
// a chunk as it is, with no copy. The caller must not use b
// afterwards. It is the ingest path of a freshly parsed batch
// (ParseRows), which nothing else refers to.
func (r *Relation) AppendBatch(b *Batch) error {
	if b.arity != r.schema.Len() {
		return fmt.Errorf("relation: batch arity %d does not match schema arity %d", b.arity, r.schema.Len())
	}
	r.adopt(b)
	return nil
}

// adopt stores b after the relation's tuples: copied onto the last
// chunk when the result stays within smallChunk rows, otherwise as a
// new chunk.
func (r *Relation) adopt(b *Batch) {
	if b.rows == 0 {
		return
	}
	if bb, ok := r.reopen(b.rows); ok {
		bb.addBatch(b)
		r.close(bb)
		return
	}
	r.chunks = append(r.chunks, chunk{first: r.n, Batch: *b})
	r.n += b.rows
	r.tail = nil
}

// reopen returns a builder continuing the last chunk when rows more
// rows keep it within smallChunk rows. Its columns grow in place, past
// what readers see, and at least double when they must move (up to
// smallChunk rows), so a chunk filled row by row copies each cell O(1)
// times; its arena starts from tail, or from a copy of the chunk's
// arena with room to grow.
func (r *Relation) reopen(rows int) (batchBuilder, bool) {
	k := len(r.chunks) - 1
	if k < 0 || r.chunks[k].rows+rows > smallChunk {
		return batchBuilder{}, false
	}
	c := &r.chunks[k]
	kinds, words := c.kinds, c.words
	if need := (c.rows + rows) * c.arity; need > cap(words) {
		size := max(need, min(2*len(words), smallChunk*c.arity))
		kinds = append(make([]values.Kind, 0, size), kinds...)
		words = append(make([]uint64, 0, size), words...)
	}
	arena := r.tail
	if arena == nil && c.arena != "" {
		arena = append(make([]byte, 0, 2*len(c.arena)), c.arena...)
	}
	return batchBuilder{arity: c.arity, rows: c.rows, kinds: kinds, words: words, arena: arena}, true
}

// close stores a builder from reopen as the last chunk, keeping its
// arena buffer as tail.
func (r *Relation) close(bb batchBuilder) {
	c := &r.chunks[len(r.chunks)-1]
	r.n += bb.rows - c.rows
	c.Batch = Batch{arity: bb.arity, rows: bb.rows, kinds: bb.kinds, words: bb.words}
	if len(bb.arena) > 0 {
		c.arena = unsafe.String(unsafe.SliceData(bb.arena), len(bb.arena))
	}
	r.tail = bb.arena
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(ts ...Tuple) {
	if err := r.Append(ts...); err != nil {
		panic(err)
	}
}

// EachBatch calls fn for every stored chunk in order, with the index of
// its first tuple: the batch-at-a-time walk of the relation. b is the
// relation's own storage: fn must not mutate it, and may keep it only
// when the relation is discarded after the walk.
func (r *Relation) EachBatch(fn func(first int, b *Batch)) {
	for k := range r.chunks {
		fn(r.chunks[k].first, &r.chunks[k].Batch)
	}
}

// Clone returns a deep copy of the relation, stored as one chunk.
func (r *Relation) Clone() *Relation {
	bb := newBatchBuilder(r.schema.Len(), r.n)
	r.Each(func(_ int, t Tuple) { bb.addRow(t) })
	out := New(r.schema)
	out.adopt(bb.batch())
	return out
}

// Each calls fn for every tuple in order. t is one buffer refilled for
// every tuple: fn must not keep it (Clone what it keeps). Its Values
// may be kept: a string cell is a view into the relation's storage,
// which never changes.
func (r *Relation) Each(fn func(i int, t Tuple)) {
	t := make(Tuple, 0, r.schema.Len())
	for k := range r.chunks {
		c := &r.chunks[k]
		for row := 0; row < c.rows; row++ {
			t = c.AppendTuple(t[:0], row)
			fn(c.first+row, t)
		}
	}
}

// Sort orders tuples lexicographically (stable, deterministic output
// for goldens and dedup), rebuilding the relation as one chunk.
func (r *Relation) Sort() {
	if r.n == 0 {
		return
	}
	ts := make([]Tuple, 0, r.n)
	r.EachBatch(func(_ int, b *Batch) { ts = append(ts, b.Tuples()...) })
	sort.SliceStable(ts, func(i, j int) bool {
		return ts[i].Compare(ts[j]) < 0
	})
	b, _ := BatchOf(r.schema.Len(), ts)
	r.chunks, r.n, r.tail = nil, 0, nil
	r.adopt(b)
}

// Distinct returns a new relation with structural duplicates removed,
// preserving first-occurrence order.
func (r *Relation) Distinct() *Relation {
	seen := make(map[string]struct{}, r.n)
	bb := newBatchBuilder(r.schema.Len(), 0)
	r.Each(func(_ int, t Tuple) {
		k := t.Key()
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		bb.addRow(t)
	})
	out := New(r.schema)
	out.adopt(bb.batch())
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
