package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
)

// FuzzSimulatePrunes holds both prune counts of every informative class
// to the definitional recount on states built from the input: byte 0
// picks the attribute count (1–13), byte 1 the tuple count (1 + byte
// below 32, twice the byte from 32: up to 510), the next n bytes per
// tuple its signature as a restricted-growth string (all zeros once the
// bytes run out), and every remaining byte one label — the low bit the
// answer, the rest which informative tuple gets it. Any explicit label
// on an informative tuple is consistent, so every input is a valid
// dialogue. The counts are checked after every label, and at the
// start. The committed corpus covers 1, 2, 11 (the largest one-word
// pair set), 12 and 13 attributes, an antichain of 0, 1 and many
// maximal negatives, classes of several tuples (projections of weight
// > 1), and at 6 and 12 attributes a table of over 128 entries (three
// entry words) with a class of 257 tuples (a ninth weight plane).
func FuzzSimulatePrunes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, count := 1+int(data[0])%13, 1+int(data[1])
		if data[1] >= 32 {
			count = 2 * int(data[1])
		}
		data = data[2:]
		rel := relation.New(relation.MustSchema(attrNames(n)...))
		for k := 0; k < count; k++ {
			tu := make(relation.Tuple, n)
			blocks := 0
			for i := range tu {
				b := 0
				if len(data) > 0 {
					b, data = int(data[0])%(blocks+1), data[1:]
				}
				blocks = max(blocks, b+1)
				tu[i] = values.Int(int64(k)<<8 + int64(b))
			}
			rel.MustAppend(tu)
		}
		st, err := NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		foreign := partition.Bottom(n)
		checkPrunes(t, st, "start", foreign)
		for step, b := range data {
			inf := st.InformativeIndices()
			if len(inf) == 0 {
				break
			}
			l := Negative
			if b&1 == 1 {
				l = Positive
			}
			if _, err := st.Apply(inf[int(b>>1)%len(inf)], l); err != nil {
				t.Fatalf("label %d: %v", step, err)
			}
			checkPrunes(t, st, fmt.Sprintf("label %d", step), foreign)
		}
	})
}

// FuzzChunk holds the relation's columnar batches to the Values they
// stand for. The text is split into rows on '\n' and cells on ',',
// every row cut or padded with empty cells to the first row's width
// (1–8 columns, at most 64 rows). typing's low byte marks the typed
// columns and its high byte rotates their kinds; cut splits the rows
// into two batches. For the parsed batch, and for a batch copied from
// tuples in which a cell of two apostrophes is the empty string, it
// checks that every materialised cell has the kind and exact payload
// of values.Parse or ParseAs of its text, that eqLabels over the
// columns equals partition.EqualLabels over values.Equal, and that a
// relation built from one batch, from two, or row by row yields the
// same Tuple(i). The committed corpus covers NULL, the empty string,
// NaN, ±0, integral floats against ints, repeated strings in one row,
// and typed columns of every kind.
func FuzzChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, typing uint16, cut uint8) {
		rows := chunkRows(text)
		width := len(rows[0])
		names := make([]string, width)
		var ann []string
		if mask := typing & 0xff; mask != 0 {
			ann = make([]string, width)
			for c := range ann {
				if mask>>c&1 != 0 {
					ann[c] = (values.KindBool + values.Kind((c+int(typing>>8))%4)).String()
				}
			}
		}
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		schema := relation.MustSchema(names...)
		ty, err := relation.TypingFromAnnotations(ann)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]relation.Tuple, len(rows))
		direct := make([]relation.Tuple, len(rows))
		parses := true
		for r, row := range rows {
			want[r] = make(relation.Tuple, width)
			direct[r] = make(relation.Tuple, width)
			for c, cell := range row {
				v, err := ty.ParseCell(c, cell)
				parses = parses && err == nil
				want[r][c] = v
				direct[r][c] = values.Parse(cell)
				if cell == "''" {
					direct[r][c] = values.Str("")
				}
			}
		}
		parsed, err := relation.ParseRows(schema, ty, rows)
		if (err == nil) != parses {
			t.Fatalf("ParseRows error %v, cells parse: %v", err, parses)
		}
		if err == nil {
			checkBatch(t, parsed, want)
			k := int(cut) % (len(rows) + 1)
			whole, split, byRow := relation.New(schema), relation.New(schema), relation.New(schema)
			if err := whole.AppendBatch(parsed); err != nil {
				t.Fatal(err)
			}
			for _, part := range [][][]string{rows[:k], rows[k:]} {
				b, err := relation.ParseRows(schema, ty, part)
				if err != nil {
					t.Fatal(err)
				}
				if err := split.AppendBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			for _, tu := range want {
				byRow.MustAppend(tu)
			}
			for _, rel := range []*relation.Relation{whole, split, byRow} {
				for i, tu := range want {
					if got := rel.Tuple(i); !sameTuple(got, tu) {
						t.Fatalf("tuple %d = %#v, want %#v (cut at %d)", i, got, tu, k)
					}
				}
			}
		}
		b, err := relation.BatchOf(width, direct)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, b, direct)
	})
}

// chunkRows splits FuzzChunk's text into rows of the first row's width.
func chunkRows(text string) [][]string {
	lines := strings.Split(text, "\n")
	lines = lines[:min(len(lines), 64)]
	width := min(max(len(strings.Split(lines[0], ",")), 1), 8)
	rows := make([][]string, len(lines))
	for r, line := range lines {
		cells := strings.Split(line, ",")
		row := make([]string, width)
		copy(row, cells)
		rows[r] = row
	}
	return rows
}

// checkBatch holds every cell of b to want and every row's column
// signature to the definitional one.
func checkBatch(t *testing.T, b *relation.Batch, want []relation.Tuple) {
	t.Helper()
	if b.Len() != len(want) {
		t.Fatalf("batch has %d rows, want %d", b.Len(), len(want))
	}
	for r, tu := range want {
		for c, v := range tu {
			if got := b.Cell(r, c); !sameValue(got, v) {
				t.Fatalf("cell (%d, %d) = %#v, want %#v", r, c, got, v)
			}
		}
		labels, ref := make([]uint8, len(tu)), make([]int, len(tu))
		eqLabels(labels, b, r)
		partition.EqualLabels(ref, func(i, j int) bool { return tu[i].Equal(tu[j]) })
		if !partition.FromCanonical(labels).Equal(partition.FromCanonical(ref)) {
			t.Fatalf("row %d %#v: column labels %v, want %v", r, tu, labels, ref)
		}
	}
}

// sameValue reports whether a and b have one kind and the same string
// or the same payload bits: Identical, and exact for NaN and -0 too.
func sameValue(a, b values.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if s, ok := a.AsString(); ok {
		u, _ := b.AsString()
		return s == u
	}
	return a.Word() == b.Word()
}

func sameTuple(a, b relation.Tuple) bool {
	return slices.EqualFunc(a, b, sameValue)
}
