package values

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindBool:   "bool",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind rendered %q", got)
	}
}

func TestKindFromString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"int", KindInt}, {"INTEGER", KindInt}, {"int64", KindInt},
		{"float", KindFloat}, {"double", KindFloat}, {"real", KindFloat},
		{"bool", KindBool}, {"Boolean", KindBool},
		{"string", KindString}, {"text", KindString}, {" varchar ", KindString},
		{"null", KindNull},
	} {
		got, err := KindFromString(tc.in)
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("KindFromString(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := KindFromString("blob"); err == nil {
		t.Error("KindFromString(blob) succeeded, want error")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() is not null")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Errorf("Bool(true).AsBool() = %v, %v", b, ok)
	}
	if i, ok := Int(-7).AsInt(); !ok || i != -7 {
		t.Errorf("Int(-7).AsInt() = %v, %v", i, ok)
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %v, %v", f, ok)
	}
	if f, ok := Int(4).AsFloat(); !ok || f != 4 {
		t.Errorf("Int(4).AsFloat() = %v, %v", f, ok)
	}
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Errorf("Str(x).AsString() = %v, %v", s, ok)
	}
	if _, ok := Str("x").AsInt(); ok {
		t.Error("string value answered AsInt")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("null value answered AsFloat")
	}
}

func TestEqualSQLSemantics(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want bool
	}{
		{Null(), Null(), false}, // NULL != NULL
		{Null(), Int(0), false},
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1.0), true}, // numeric cross-kind
		{Float(1.5), Float(1.5), true},
		{Int(1), Str("1"), false}, // no string coercion
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Bool(true), Int(1), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
	} {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%#v.Equal(%#v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Equal(tc.a); got != tc.want {
			t.Errorf("Equal not symmetric for %#v, %#v", tc.a, tc.b)
		}
	}
}

func TestIdentical(t *testing.T) {
	if !Null().Identical(Null()) {
		t.Error("NULL not identical to NULL")
	}
	if Int(1).Identical(Float(1)) {
		t.Error("int 1 identical to float 1")
	}
	if !Int(1).Identical(Int(1)) {
		t.Error("int 1 not identical to itself")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	ordered := []Value{
		Null(),
		Bool(false), Bool(true),
		Int(-3), Float(-2.5), Int(0), Float(0.5), Int(1), Int(7),
		Str(""), Str("a"), Str("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%#v, %#v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Int(1).Compare(Float(1.0)) != 0 {
		t.Error("Int(1) vs Float(1.0) not equal in order")
	}
	if Float(1.0).Compare(Int(1)) != 0 {
		t.Error("Float(1.0) vs Int(1) not equal in order")
	}
	if Int(2).Compare(Float(1.5)) != 1 {
		t.Error("Int(2) should sort after Float(1.5)")
	}
}

func TestStringRendering(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), ""},
		{Bool(true), "true"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("hello"), "hello"},
		{Bool(false), "false"},
		{Int(-9223372036854775808), "-9223372036854775808"},
		{Float(1e21), "1e+21"},
		{Float(math.Inf(-1)), "-Inf"},
		{Float(math.NaN()), "NaN"},
		{Str(""), ""},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
		if got := string(tc.v.AppendString([]byte("x"))); got != "x"+tc.want {
			t.Errorf("%#v.AppendString = %q, want %q", tc.v, got, "x"+tc.want)
		}
	}
	if got := Str("x").GoString(); got != `"x"` {
		t.Errorf("GoString of string = %q", got)
	}
	if got := Null().GoString(); got != "NULL" {
		t.Errorf("GoString of null = %q", got)
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Value
	}{
		{"", Null()},
		{"NULL", Null()},
		{"null", Null()},
		{"true", Bool(true)},
		{"False", Bool(false)},
		{"42", Int(42)},
		{"-17", Int(-17)},
		{"2.5", Float(2.5)},
		{"1e3", Float(1000)},
		{"Paris", Str("Paris")},
		{"42abc", Str("42abc")},
	} {
		if got := Parse(tc.in); !got.Identical(tc.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

func TestParseAs(t *testing.T) {
	v, err := ParseAs("42", KindString)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "42" {
		t.Errorf("ParseAs(42, string) = %#v", v)
	}
	if _, err := ParseAs("abc", KindInt); err == nil {
		t.Error("ParseAs(abc, int) succeeded")
	}
	if _, err := ParseAs("abc", KindFloat); err == nil {
		t.Error("ParseAs(abc, float) succeeded")
	}
	if _, err := ParseAs("maybe", KindBool); err == nil {
		t.Error("ParseAs(maybe, bool) succeeded")
	}
	v, err = ParseAs("", KindInt)
	if err != nil || !v.IsNull() {
		t.Errorf("ParseAs(empty, int) = %#v, %v; want NULL", v, err)
	}
	v, err = ParseAs("2.5", KindFloat)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f != 2.5 {
		t.Errorf("ParseAs(2.5, float) = %#v", v)
	}
	v, err = ParseAs("true", KindBool)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := v.AsBool(); !b {
		t.Errorf("ParseAs(true, bool) = %#v", v)
	}
}

// randomValue draws a value across all kinds for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(int64(r.Intn(7) - 3))
	case 3:
		return Float(float64(r.Intn(7)-3) / 2)
	default:
		return Str(string(rune('a' + r.Intn(4))))
	}
}

func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		// If a <= b and b <= c then a <= c.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEqualImpliesCompareZero(t *testing.T) {
	// For non-NULL values the converse holds too: Compare is 0 exactly
	// when Equal is true.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		if a.IsNull() || b.IsNull() {
			return !a.Equal(b)
		}
		return a.Equal(b) == (a.Compare(b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyParseRoundTripNonString(t *testing.T) {
	// For null/bool/int/float values, Parse(v.String()) == v.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		if v.Kind() == KindString {
			return true // strings may collide with literals; typed headers handle them
		}
		got := Parse(v.String())
		if v.Kind() == KindFloat {
			// Integral floats re-parse as ints; numeric equality is what matters.
			return got.Equal(v) || (v.IsNull() && got.IsNull())
		}
		return got.Identical(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// bigEdgeValue draws a number near ±2^53 (where float64 stops holding
// every integer) or ±2^63 (the int64 range), as an int or a float, with
// the occasional infinity or NaN.
func bigEdgeValue(r *rand.Rand) Value {
	bases := []int64{1 << 53, -(1 << 53), math.MaxInt64, math.MinInt64, 0}
	i := bases[r.Intn(len(bases))] + int64(r.Intn(9)-4)
	switch r.Intn(8) {
	case 0, 1, 2:
		return Int(i)
	case 3:
		return Float(float64(i))
	case 4:
		return Float(math.Nextafter(float64(i), math.Inf(2*r.Intn(2)-1)))
	case 5:
		return Float(float64(i) + 0.5*float64(2*r.Intn(2)-1))
	case 6:
		return Float([]float64{two63, -two63, math.Inf(1), math.Inf(-1)}[r.Intn(4)])
	default:
		return Float(math.NaN())
	}
}

// exactCmp is the reference order of two numeric values, computed in
// arbitrary precision (NaN equal to itself and above every number).
func exactCmp(a, b Value) int {
	isNaN := func(v Value) bool { f, _ := v.AsFloat(); return v.Kind() == KindFloat && math.IsNaN(f) }
	switch an, bn := isNaN(a), isNaN(b); {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	toBig := func(v Value) *big.Float {
		if i, ok := v.AsInt(); ok {
			return new(big.Float).SetInt64(i)
		}
		f, _ := v.AsFloat()
		return big.NewFloat(f)
	}
	return toBig(a).Cmp(toBig(b))
}

// TestPropertyNumericEqualityExact holds Equal and Compare to exact
// arithmetic where float64 rounding used to merge distinct numbers:
// Int(2^53) and Int(2^53+1) must differ, so two 64-bit ids never share
// an Eq signature, and Compare is 0 exactly when Equal is true.
func TestPropertyNumericEqualityExact(t *testing.T) {
	if Int(1 << 53).Equal(Int(1<<53 + 1)) {
		t.Fatal("Int(2^53) equals Int(2^53+1)")
	}
	if Int(math.MaxInt64).Equal(Float(two63)) {
		t.Fatal("Int(MaxInt64) equals Float(2^63)")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := bigEdgeValue(r), bigEdgeValue(r), bigEdgeValue(r)
		want := exactCmp(a, b)
		if got := a.Compare(b); got != want {
			t.Logf("%#v.Compare(%#v) = %d, exact %d", a, b, got, want)
			return false
		}
		if a.Equal(b) != (want == 0) || b.Equal(a) != (want == 0) {
			t.Logf("%#v.Equal(%#v) = %v, exact order %d", a, b, a.Equal(b), want)
			return false
		}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Logf("order not transitive over %#v, %#v, %#v", a, b, c)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
