package values

import (
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// The layout tests pin the 16-byte Value: a pointer that is either a
// string's bytes or a kind sentinel, and one payload word. They hold
// the layout to the semantics of the earlier layouts (the golden
// file), and check what a pointer-carrying layout could break: kinds,
// the empty string, string contents over addresses, and liveness.

var updateGolden = flag.Bool("update", false, "rewrite testdata/semantics.golden from the current code")

// TestValueSize pins the 16-byte layout: a tuple slab is the bulk of a
// session's memory.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	// str reads {p, n} as a string header.
	var v Value
	if unsafe.Offsetof(v.p) != 0 || unsafe.Offsetof(v.n) != unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("p at %d, n at %d: not a string header", unsafe.Offsetof(v.p), unsafe.Offsetof(v.n))
	}
}

// TestValueNotComparable pins that == on Values does not compile: it
// would compare a string's address, not its contents.
func TestValueNotComparable(t *testing.T) {
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable; == would compare string addresses")
	}
}

// TestConstructorKinds checks that every constructor's Value reports
// the kind it was built as, and that the empty string is a string.
func TestConstructorKinds(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want Kind
	}{
		{Null(), KindNull}, {Value{}, KindNull},
		{Bool(false), KindBool}, {Bool(true), KindBool},
		{Int(0), KindInt}, {Int(-1), KindInt}, {Int(math.MaxInt64), KindInt}, {Int(math.MinInt64), KindInt},
		{Float(0), KindFloat}, {Float(math.NaN()), KindFloat}, {Float(math.Inf(-1)), KindFloat},
		{String_(""), KindString}, {Str(""), KindString}, {Str("x"), KindString},
		{String_(strings.Repeat("long", 100)), KindString},
	} {
		if got := tc.v.Kind(); got != tc.want {
			t.Errorf("%#v.Kind() = %v, want %v", tc.v, got, tc.want)
		}
		if got := tc.v.IsNull(); got != (tc.want == KindNull) {
			t.Errorf("%#v.IsNull() = %v", tc.v, got)
		}
		if _, got := tc.v.AsString(); got != (tc.want == KindString) {
			t.Errorf("%#v.AsString() ok = %v", tc.v, got)
		}
	}
	empty := String_("")
	if empty.IsNull() || empty.Equal(Null()) || empty.Identical(Null()) {
		t.Error("String_(\"\") reads as NULL")
	}
	if s, ok := empty.AsString(); !ok || s != "" {
		t.Errorf("String_(\"\").AsString() = %q, %v", s, ok)
	}
	if !empty.Identical(Str("")) || !empty.Equal(Str("")) || empty.Compare(Str("")) != 0 {
		t.Error("two empty strings differ")
	}
	sub := "ab"[2:] // an empty string with its own data pointer
	if !String_(sub).Identical(empty) {
		t.Error("an empty substring differs from the empty string")
	}
}

// TestStringsCompareByContent builds equal strings at runtime, in
// distinct allocations, and checks that each agrees with the literal
// under Identical, Equal and Compare, and that a different string of
// the same length does not.
func TestStringsCompareByContent(t *testing.T) {
	for _, lit := range []string{"a", "Paris", "NULL", "42", strings.Repeat("xyz", 50)} {
		built := string(append([]byte(nil), lit...))
		a, b := Str(lit), Str(built)
		if !a.Identical(b) || !b.Identical(a) {
			t.Errorf("%q: runtime copy not Identical", lit)
		}
		if !a.Equal(b) || !b.Equal(a) {
			t.Errorf("%q: runtime copy not Equal", lit)
		}
		if a.Compare(b) != 0 || b.Compare(a) != 0 {
			t.Errorf("%q: runtime copy does not Compare 0", lit)
		}
		other := []byte(lit)
		other[len(other)-1]++
		if c := Str(string(other)); a.Identical(c) || a.Equal(c) || a.Compare(c) == 0 {
			t.Errorf("%q: same-length %q reads as equal", lit, other)
		}
	}
}

// TestStringValueKeepsBytesAlive drops every reference to a string's
// bytes but the Value's pointer, collects, overwrites freed memory with
// fresh allocations, and checks the Value still reads its contents.
func TestStringValueKeepsBytesAlive(t *testing.T) {
	const n = 64
	vs := make([]Value, n)
	want := make([]string, n)
	for i := range vs {
		b := []byte(strings.Repeat(string(rune('a'+i%26)), 33+i))
		want[i] = string(b)
		vs[i] = String_(string(b))
	}
	runtime.GC()
	runtime.GC()
	var sink [][]byte
	for i := 0; i < 4*n; i++ {
		sink = append(sink, []byte(strings.Repeat("#", 33+i%n)))
	}
	runtime.KeepAlive(sink)
	for i, v := range vs {
		if got, _ := v.AsString(); got != want[i] {
			t.Fatalf("value %d reads %q after GC, want %q", i, got, want[i])
		}
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
// replaced it, and which the 32- and 16-byte layouts left unchanged. Regenerate with -update only for an intended change.
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
