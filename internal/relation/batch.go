package relation

import (
	"fmt"
	"unsafe"

	"repro/internal/values"
)

// Batch is a run of tuples in the pointer-free layout a relation
// stores them in: a kind column and a payload-word column, row-major
// (cell (r, c) of a batch of arity a at index r*a+c), and one string
// arena holding the batch's string bytes.
//
// A bool, int or float cell's word is its payload (values.Value.Word).
// A NULL cell's word is 0. A string cell's word is its offset in the
// arena in the high 32 bits and its length in the low 32; the empty
// string's word is 0. String cells equal within one row share one
// arena slot, so two string cells of a row are equal exactly when
// their words are — the same holds for two int or two bool cells —
// and signature registration compares words without building Values.
//
// Only the arena and the slice headers hold pointers, so the
// collector scans a few words per batch however many cells it holds.
// A materialised string cell is a view into the arena. A batch's
// arena holds less than 4 GiB.
type Batch struct {
	arity int
	rows  int
	kinds []values.Kind
	words []uint64
	arena string
}

// lenBits is the width of a string word's length field.
const lenBits = 32

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return b.rows }

// Arity returns the number of cells per tuple.
func (b *Batch) Arity() int { return b.arity }

// Row returns the kinds and payload words of the cells of row r. They
// are the batch's own storage; the caller must not mutate them.
func (b *Batch) Row(r int) ([]values.Kind, []uint64) {
	lo, hi := r*b.arity, (r+1)*b.arity
	return b.kinds[lo:hi:hi], b.words[lo:hi:hi]
}

// Cell materialises cell c of row r.
func (b *Batch) Cell(r, c int) values.Value { return b.cell(r*b.arity + c) }

// cell materialises the cell at column index j.
func (b *Batch) cell(j int) values.Value {
	k, w := b.kinds[j], b.words[j]
	if k == values.KindString {
		off := w >> lenBits
		return values.String_(b.arena[off : off+w&(1<<lenBits-1)])
	}
	return values.FromWord(k, w)
}

// AppendTuple appends the cells of row r to dst and returns the
// extended tuple, so a reader walking many rows fills one buffer.
func (b *Batch) AppendTuple(dst Tuple, r int) Tuple {
	for j := r * b.arity; j < (r+1)*b.arity; j++ {
		dst = append(dst, b.cell(j))
	}
	return dst
}

// Tuples materialises every row, the tuples cut from one Value slab,
// each at full capacity.
func (b *Batch) Tuples() []Tuple {
	slab := make([]values.Value, b.rows*b.arity)
	out := make([]Tuple, b.rows)
	for r := range out {
		t := Tuple(slab[r*b.arity : r*b.arity : (r+1)*b.arity])
		out[r] = b.AppendTuple(t, r)
	}
	return out
}

// BatchOf copies tuples of the given arity into a batch. A tuple of
// another arity fails the whole batch.
func BatchOf(arity int, ts []Tuple) (*Batch, error) {
	if err := checkArity(arity, ts); err != nil {
		return nil, err
	}
	bb := newBatchBuilder(arity, len(ts))
	for _, t := range ts {
		bb.addRow(t)
	}
	return bb.batch(), nil
}

func checkArity(arity int, ts []Tuple) error {
	for _, t := range ts {
		if len(t) != arity {
			return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(t), arity)
		}
	}
	return nil
}

// batchBuilder fills a batch row by row. It is the one writer of the
// layout: every batch — parsed, appended, cloned or sorted — is built
// by it, so every batch shares string slots within a row.
type batchBuilder struct {
	arity int
	rows  int
	kinds []values.Kind
	words []uint64
	arena []byte
}

// newBatchBuilder returns a builder with room for rows rows; it grows
// past them as needed.
func newBatchBuilder(arity, rows int) batchBuilder {
	return batchBuilder{
		arity: arity,
		kinds: make([]values.Kind, 0, rows*arity),
		words: make([]uint64, 0, rows*arity),
	}
}

// addBatch appends the rows of o, a batch of the builder's arity,
// re-basing its string words onto the builder's arena. o's rows share
// string slots already, and distinct slots stay distinct.
func (bb *batchBuilder) addBatch(o *Batch) {
	bb.kinds = append(bb.kinds, o.kinds...)
	base := uint64(len(bb.arena)) << lenBits
	for j, k := range o.kinds {
		w := o.words[j]
		if k == values.KindString && w != 0 {
			w += base
		}
		bb.words = append(bb.words, w)
	}
	bb.arena = append(bb.arena, o.arena...)
	bb.rows += o.rows
}

// addRow appends one tuple of the builder's arity.
func (bb *batchBuilder) addRow(t Tuple) {
	start := bb.next()
	for j, v := range t {
		bb.set(start, j, v)
	}
}

// next extends the columns by one row, growing them by doubling when
// they are full, and returns the column index of the row's first cell.
func (bb *batchBuilder) next() int {
	start := len(bb.kinds)
	n := start + bb.arity
	if n > cap(bb.kinds) || n > cap(bb.words) {
		size := max(n, 2*start)
		bb.kinds = append(make([]values.Kind, 0, size), bb.kinds...)
		bb.words = append(make([]uint64, 0, size), bb.words...)
	}
	bb.kinds, bb.words = bb.kinds[:n], bb.words[:n]
	bb.rows++
	return start
}

// set stores v as cell j of the row whose first cell is at column
// index start, copying a string's bytes into the arena unless an
// earlier cell of the row holds the same string.
func (bb *batchBuilder) set(start, j int, v values.Value) {
	k, w := v.Kind(), v.Word()
	if k == values.KindString && w != 0 {
		w = bb.intern(start, start+j, v)
	}
	bb.kinds[start+j], bb.words[start+j] = k, w
}

// intern returns the word of v, a non-empty string, among the cells at
// column indices [start, end) of its row: an earlier equal cell's, or
// a fresh arena slot.
func (bb *batchBuilder) intern(start, end int, v values.Value) uint64 {
	s, _ := v.AsString()
	for j := start; j < end; j++ {
		if w := bb.words[j]; bb.kinds[j] == values.KindString && int(w&(1<<lenBits-1)) == len(s) &&
			string(bb.arena[w>>lenBits:int(w>>lenBits)+len(s)]) == s {
			return w
		}
	}
	off := len(bb.arena)
	if uint64(off)+uint64(len(s)) >= 1<<lenBits {
		panic("relation: a batch's strings exceed 4 GiB")
	}
	bb.arena = append(bb.arena, s...)
	return uint64(off)<<lenBits | uint64(len(s))
}

// batch returns the built batch; the builder must not be used again.
// Columns and arena that grew well past their fill are copied to their
// exact size, so the batch keeps no spare capacity; the arena
// otherwise becomes the batch's string without a copy.
func (bb *batchBuilder) batch() *Batch {
	b := &Batch{arity: bb.arity, rows: bb.rows, kinds: fit(bb.kinds), words: fit(bb.words)}
	switch a := bb.arena; {
	case len(a) == 0:
	case cap(a)-len(a) > len(a)/8:
		b.arena = string(a)
	default:
		b.arena = unsafe.String(unsafe.SliceData(a), len(a))
	}
	return b
}

// fit returns s, or an exact-size copy of it when more than an eighth
// of its capacity is unused.
func fit[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/8 {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}
