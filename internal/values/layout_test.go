package values

import (
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/semantics.golden from the current code")

// TestValueSize pins the 32-byte layout: a tuple slab is the bulk of a
// session's memory.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestFloatSemantics pins what the payload word must not change:
// floats compare as float64 values, never as bit patterns, and a
// number's kind still separates identical from equal.
func TestFloatSemantics(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	cases := []struct {
		name             string
		a, b             Value
		identical, equal bool
		compare          int
	}{
		{"NaN vs NaN", Float(nan), Float(nan), false, true, 0},
		{"NaN vs other NaN", Float(nan), Float(otherNaN), false, true, 0},
		{"+0 vs -0", Float(0), Float(negZero), true, true, 0},
		{"-0 vs int 0", Float(negZero), Int(0), false, true, 0},
		{"int vs float", Int(1), Float(1), false, true, 0},
		{"int vs float above 2^53", Int(1<<53 + 1), Float(1 << 53), false, false, 1},
		{"NaN vs max int", Float(nan), Int(math.MaxInt64), false, false, 1},
		{"+Inf vs NaN", Float(math.Inf(1)), Float(nan), false, false, -1},
		{"false vs int 0", Bool(false), Int(0), false, false, -1},
		{"true vs true", Bool(true), Bool(true), true, true, 0},
		{"NULL vs NULL", Null(), Null(), true, false, 0},
		{"int 0 vs NULL", Int(0), Null(), false, false, 1},
		{"empty string vs NULL", Str(""), Null(), false, false, 1},
	}
	for _, tc := range cases {
		if got := tc.a.Identical(tc.b); got != tc.identical {
			t.Errorf("%s: Identical = %v, want %v", tc.name, got, tc.identical)
		}
		if got := tc.b.Identical(tc.a); got != tc.identical {
			t.Errorf("%s: Identical not symmetric", tc.name)
		}
		if got := tc.a.Equal(tc.b); got != tc.equal {
			t.Errorf("%s: Equal = %v, want %v", tc.name, got, tc.equal)
		}
		if got := tc.a.Compare(tc.b); got != tc.compare {
			t.Errorf("%s: Compare = %d, want %d", tc.name, got, tc.compare)
		}
		if got := tc.b.Compare(tc.a); got != -tc.compare {
			t.Errorf("%s: reversed Compare = %d, want %d", tc.name, got, -tc.compare)
		}
	}
	if f, _ := Float(negZero).AsFloat(); !math.Signbit(f) {
		t.Error("Float(-0) lost its sign")
	}
	if f, _ := Float(nan).AsFloat(); !math.IsNaN(f) {
		t.Error("Float(NaN) is not NaN")
	}
}

// semanticsValues spans every kind with the cases a payload-word layout
// could get wrong: signed zeros, NaN, infinities, integers float64
// cannot hold, and ints equal to floats.
var semanticsValues = []Value{
	Null(), Bool(false), Bool(true),
	Int(0), Int(-1), Int(1), Int(math.MaxInt64), Int(math.MinInt64), Int(1<<53 + 1), Int(1 << 53),
	Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
	Float(1), Float(-1), Float(0.5), Float(1 << 53), Float(1 << 63), Float(-(1 << 63)),
	Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64),
	Str(""), Str("a"), Str("NULL"), Str("1"),
}

// semanticsReport renders, for semanticsValues, each value's tag and
// the full Compare, Equal and Identical matrices: one row per left
// operand, one character per right operand.
func semanticsReport() string {
	var b strings.Builder
	for _, v := range semanticsValues {
		b.WriteString(v.Tag())
		b.WriteByte('\n')
	}
	for _, m := range []struct {
		name string
		cell func(a, b Value) byte
	}{
		{"compare", func(a, b Value) byte { return "<=>"[a.Compare(b)+1] }},
		{"equal", func(a, b Value) byte { return boolByte(a.Equal(b)) }},
		{"identical", func(a, b Value) byte { return boolByte(a.Identical(b)) }},
	} {
		b.WriteString(m.name)
		b.WriteByte('\n')
		for _, x := range semanticsValues {
			for _, y := range semanticsValues {
				b.WriteByte(m.cell(x, y))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func boolByte(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}

// TestSemanticsGolden holds Tag, Compare, Equal and Identical over
// semanticsValues to testdata/semantics.golden, which was written by
// the 40-byte layout ({kind, b, i, f, s}) before the payload word
// replaced it. Regenerate with -update only for an intended change.
func TestSemanticsGolden(t *testing.T) {
	const path = "testdata/semantics.golden"
	got := semanticsReport()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("semantics differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
