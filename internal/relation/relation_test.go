package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/values"
)

func TestNewSchema(t *testing.T) {
	s, err := NewSchema("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Name(1) != "b" {
		t.Errorf("schema misbuilt: %v", s)
	}
	if i, ok := s.Index("c"); !ok || i != 2 {
		t.Errorf("Index(c) = %d, %v", i, ok)
	}
	if _, ok := s.Index("zzz"); ok {
		t.Error("Index(zzz) found")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty attribute accepted")
	}
}

// TestSchemaErrorNamesFirstFault holds NewSchema's error to the first
// fault in column order, whatever the sorted order of the names: the
// text reaches clients in create replies.
func TestSchemaErrorNamesFirstFault(t *testing.T) {
	wide := make([]string, 20)
	for i := range wide {
		wide[i] = fmt.Sprintf("z%02d", i)
	}
	wide[17], wide[19] = "m", "b"
	wide = append(wide, "b", "m")
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{[]string{"b", "a", "b", "a"}, `relation: duplicate attribute "b"`},
		{[]string{"a", "a", ""}, `relation: duplicate attribute "a"`},
		{[]string{"b", "", "b"}, "relation: empty attribute name at position 1"},
		{wide, `relation: duplicate attribute "b"`},
	} {
		_, err := NewSchema(tc.names...)
		if err == nil || err.Error() != tc.want {
			t.Errorf("NewSchema(%q) = %v, want %s", tc.names, err, tc.want)
		}
	}
}

func TestSchemaIndexes(t *testing.T) {
	s := MustSchema("a", "b", "c")
	idx, err := s.Indexes("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 2 || idx[1] != 0 {
		t.Errorf("Indexes = %v", idx)
	}
	if _, err := s.Indexes("a", "nope"); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestSchemaPrefixedConcat(t *testing.T) {
	s := MustSchema("id", "x")
	p := s.Prefixed("dim.")
	if p.Name(0) != "dim.id" || p.Name(1) != "dim.x" {
		t.Errorf("Prefixed = %v", p)
	}
	c, err := s.Concat(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Errorf("Concat len = %d", c.Len())
	}
	if _, err := s.Concat(s); err == nil {
		t.Error("Concat with clashing names accepted")
	}
	if !s.Equal(MustSchema("id", "x")) || s.Equal(p) {
		t.Error("Equal misbehaves")
	}
	if got := s.String(); got != "(id, x)" {
		t.Errorf("String = %q", got)
	}
}

func TestBuildAndAccess(t *testing.T) {
	r := MustBuild(MustSchema("name", "n", "f", "b"),
		[]any{"alice", 3, 1.5, true},
		[]any{values.Str("bob"), int64(4), nil, false},
	)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	t0 := r.Tuple(0)
	if s, _ := t0[0].AsString(); s != "alice" {
		t.Errorf("t0[0] = %#v", t0[0])
	}
	if i, _ := t0[1].AsInt(); i != 3 {
		t.Errorf("t0[1] = %#v", t0[1])
	}
	if !r.Tuple(1)[2].IsNull() {
		t.Errorf("nil cell not NULL: %#v", r.Tuple(1)[2])
	}
	if _, err := Build(MustSchema("a"), []any{1, 2}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := Build(MustSchema("a"), []any{struct{}{}}); err == nil {
		t.Error("unsupported cell type accepted")
	}
}

func TestAppendArity(t *testing.T) {
	r := New(MustSchema("a", "b"))
	if err := r.Append(Tuple{values.Int(1)}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := r.Append(Tuple{values.Int(1), values.Int(2)}); err != nil {
		t.Error(err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestTupleEqualIdenticalCompare(t *testing.T) {
	a := Tuple{values.Int(1), values.Null()}
	b := Tuple{values.Int(1), values.Null()}
	if a.Equal(b) {
		t.Error("tuples with NULLs should not be Equal (SQL)")
	}
	if !a.Identical(b) {
		t.Error("structurally same tuples not Identical")
	}
	c := Tuple{values.Int(1), values.Int(2)}
	if a.Compare(c) >= 0 {
		t.Error("NULL should sort before int")
	}
	if c.Compare(c) != 0 {
		t.Error("Compare self != 0")
	}
	short := Tuple{values.Int(1)}
	if short.Compare(c) != -1 || c.Compare(short) != 1 {
		t.Error("prefix ordering wrong")
	}
	if a.Equal(short) || a.Identical(short) {
		t.Error("length mismatch treated as equal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := MustBuild(MustSchema("a"), []any{1})
	c := r.Clone()
	c.Tuple(0)[0] = values.Int(99)
	if v, _ := r.Tuple(0)[0].AsInt(); v != 1 {
		t.Error("Clone shares tuple storage")
	}
}

func TestSortAndDistinct(t *testing.T) {
	r := MustBuild(MustSchema("a", "b"),
		[]any{2, "y"},
		[]any{1, "x"},
		[]any{2, "y"},
		[]any{1, "x"},
	)
	d := r.Distinct()
	if d.Len() != 2 {
		t.Fatalf("Distinct len = %d", d.Len())
	}
	d.Sort()
	if v, _ := d.Tuple(0)[0].AsInt(); v != 1 {
		t.Errorf("sorted first tuple = %v", d.Tuple(0))
	}
	// Original unchanged by Distinct.
	if r.Len() != 4 {
		t.Errorf("source mutated: len=%d", r.Len())
	}
}

func TestEach(t *testing.T) {
	r := MustBuild(MustSchema("a"), []any{1}, []any{2})
	sum := int64(0)
	r.Each(func(i int, tu Tuple) {
		v, _ := tu[0].AsInt()
		sum += v
	})
	if sum != 3 {
		t.Errorf("Each visited sum=%d", sum)
	}
}

func TestStringRendering(t *testing.T) {
	r := MustBuild(MustSchema("name", "n"), []any{"alice", 10})
	s := r.String()
	if !strings.Contains(s, "name") || !strings.Contains(s, "alice") {
		t.Errorf("render missing data:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("render has %d lines, want 2", len(lines))
	}
}

func TestReadCSVInferred(t *testing.T) {
	in := "city,pop,ratio,ok\nParis,2100000,0.8,true\nLille,230000,0.4,false\n"
	r, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Schema().Len() != 4 {
		t.Fatalf("got %d tuples, %d attrs", r.Len(), r.Schema().Len())
	}
	t0 := r.Tuple(0)
	if _, ok := t0[0].AsString(); !ok {
		t.Errorf("city kind = %v", t0[0].Kind())
	}
	if v, ok := t0[1].AsInt(); !ok || v != 2100000 {
		t.Errorf("pop = %#v", t0[1])
	}
	if v, ok := t0[2].AsFloat(); !ok || v != 0.8 {
		t.Errorf("ratio = %#v", t0[2])
	}
	if v, ok := t0[3].AsBool(); !ok || !v {
		t.Errorf("ok = %#v", t0[3])
	}
}

func TestReadCSVTypedHeader(t *testing.T) {
	in := "code:string,amount:int\n42,17\n,3\n"
	r, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema().Name(0) != "code" {
		t.Errorf("typed header name = %q", r.Schema().Name(0))
	}
	if s, ok := r.Tuple(0)[0].AsString(); !ok || s != "42" {
		t.Errorf("code should stay string, got %#v", r.Tuple(0)[0])
	}
	if !r.Tuple(1)[0].IsNull() {
		t.Errorf("empty typed cell should be NULL, got %#v", r.Tuple(1)[0])
	}
	if _, err := ReadCSV(strings.NewReader("a:int\nxyz\n"), CSVOptions{}); err == nil {
		t.Error("bad typed cell accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a:blob\n1\n"), CSVOptions{}); err == nil {
		t.Error("bad kind annotation accepted")
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), CSVOptions{NoHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema().Name(0) != "c0" || r.Schema().Name(1) != "c1" {
		t.Errorf("generated names = %v", r.Schema().Names())
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n"), CSVOptions{}); err == nil {
		t.Error("ragged record accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,a\n1,2\n"), CSVOptions{}); err == nil {
		t.Error("duplicate header accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := MustBuild(MustSchema("city", "pop"),
		[]any{"Paris", 2100000},
		[]any{"Lille", 230000},
	)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("round trip lost tuples: %d vs %d", back.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if !back.Tuple(i).Identical(r.Tuple(i)) {
			t.Errorf("tuple %d changed: %v vs %v", i, back.Tuple(i), r.Tuple(i))
		}
	}
}

// tagPool is every cell kind in the shapes a tagged round trip can
// lose: NULL, both bools, the int extremes, NaN and −0, the empty
// string, and strings that read as numbers, bools or tags.
var tagPool = []values.Value{
	values.Null(), values.Bool(true), values.Bool(false), values.Int(-7), values.Int(math.MaxInt64),
	values.Float(2.5), values.Float(math.NaN()), values.Float(math.Copysign(0, -1)),
	values.Str(""), values.Str("Paris"), values.Str("a,\"b\"\nc"), values.Str("ünï ✓"),
	values.Str("42"), values.Str("-0"), values.Str("2.5"), values.Str("NaN"), values.Str("true"), values.Str("i:1"),
}

// exactCell is Value.Identical made exact for floats: same kind and
// payload word, and for strings the same text, so NaN matches NaN and
// −0 does not match +0.
func exactCell(a, b values.Value) bool {
	if a.Kind() == values.KindString {
		return a.Identical(b)
	}
	return a.Kind() == b.Kind() && a.Word() == b.Word()
}

// TestAppendEventBytesMatchTagBuilt holds the tagged-row codec to the
// per-cell construction: AppendTagged yields one values.Tag string per
// cell and one row per tuple, so the session files and WAL append
// events built from its rows are unchanged byte for byte, and
// ParseTagged reads every cell of them back exactly.
func TestAppendEventBytesMatchTagBuilt(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		width := 1 + r.Intn(7)
		tuples := make([]Tuple, 1+r.Intn(40))
		want := make([][]string, len(tuples))
		for i := range tuples {
			tu := make(Tuple, width)
			row := make([]string, width)
			for c := range tu {
				if r.Intn(3) == 0 {
					tu[c] = values.Int(r.Int63n(1 << 40))
				} else {
					tu[c] = tagPool[r.Intn(len(tagPool))]
				}
				row[c] = tu[c].Tag()
			}
			tuples[i], want[i] = tu, row
		}
		b, err := BatchOf(width, tuples)
		if err != nil {
			t.Fatal(err)
		}
		got := b.AppendTagged([][]string{{"kept"}})
		if len(got) == 0 || !reflect.DeepEqual(got[0], []string{"kept"}) {
			t.Fatalf("trial %d: AppendTagged lost dst's rows: %q", trial, got)
		}
		if got = got[1:]; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: AppendTagged rows %q, want %q", trial, got, want)
		}
		// Rows never alias: growing one row must not write into the next.
		if len(got) > 1 {
			next := got[1][0]
			_ = append(got[0], "x")
			if got[1][0] != next {
				t.Fatalf("trial %d: appending to row 0 overwrote row 1", trial)
			}
		}
		names := make([]string, width)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		back, err := ParseTagged(MustSchema(names...), got)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, tu := range tuples {
			for c, v := range tu {
				if w := back.Cell(i, c); !exactCell(w, v) {
					t.Fatalf("trial %d: cell %d,%d decodes as %#v, want %#v", trial, i, c, w, v)
				}
			}
		}
	}
	schema := MustSchema("a", "b")
	if _, err := ParseTagged(schema, [][]string{{"i:1"}}); !errors.Is(err, ErrRowWidth) {
		t.Errorf("ragged row: %v, want ErrRowWidth", err)
	}
	for _, bad := range []string{"zz", "i:x", "n:1", "q:1"} {
		if _, err := ParseTagged(schema, [][]string{{"i:1", bad}}); err == nil {
			t.Errorf("tag %q accepted", bad)
		}
	}
}

func TestCSVSemicolonSeparator(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("a;b\n1;2\n"), CSVOptions{Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema().Len() != 2 || r.Len() != 1 {
		t.Errorf("semicolon CSV parsed wrong: %v", r)
	}
}

// TestReadCSVTypedForcedTyping: a caller-supplied Typing overrides the
// input's own header annotations, and a column-count mismatch between
// the forced typing and the input is ErrTypingMismatch.
func TestReadCSVTypedForcedTyping(t *testing.T) {
	_, typing, err := ReadCSVTyped(strings.NewReader("a:string,b\n01,01\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if typing.Empty() {
		t.Fatal("annotated header read as untyped")
	}
	// Re-read a plain-header input under the forced typing: column a
	// stays a string, column b still infers to int.
	rel, _, err := ReadCSVTyped(strings.NewReader("a,b\n01,01\n"), CSVOptions{Typing: typing})
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuple(0)[0].Kind(); got != values.KindString {
		t.Errorf("forced-typed column parsed as %v, want string", got)
	}
	if got := rel.Tuple(0)[1].Kind(); got != values.KindInt {
		t.Errorf("inferred column parsed as %v, want int", got)
	}
	if _, _, err := ReadCSVTyped(strings.NewReader("a,b,c\n1,2,3\n"), CSVOptions{Typing: typing}); !errors.Is(err, ErrTypingMismatch) {
		t.Errorf("column-count drift error = %v, want ErrTypingMismatch", err)
	}
}
