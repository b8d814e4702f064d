package values

import (
	"math"
	"strconv"
	"testing"
)

// referenceParse is Parse as it was before the hand-written decimal
// scan and the early string exit: strconv decides everything that is
// not a NULL or bool literal.
func referenceParse(s string) Value {
	switch s {
	case "", "NULL", "null":
		return Null()
	case "true", "TRUE", "True":
		return Bool(true)
	case "false", "FALSE", "False":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return String_(s)
}

// FuzzParseMatchesReference holds Parse to referenceParse: the same
// kind and payload for every input, NaN matching NaN.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range []string{
		"+", "-", "-0", "+7", "007", "0", "42", "Paris",
		"123456789012345678", "-123456789012345678", "+123456789012345678",
		"1234567890123456789", "-1234567890123456789",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"1_000", "0x1p-2", "0x10", "Inf", "+Inf", "-inf", "infinity", "nan", "NaN",
		"INFINITY", "iNf", "infin", "nano", "None", "NYC", "i", "N",
		"١٢", "e5", ".5", "5.", "1e3", "-2.5e-3", "+-1", "--1", "1 ", " 1",
		"NULL", "null", "", "true", "False",
		"-0.0", "0.0", "-0e0", "+0.0", "-nan", "+NaN", "1e400", "-1e400",
		"4.9e-324", "2.2250738585072014e-308", "9007199254740993", "9007199254740993.0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Parse(s), referenceParse(s)
		if got.Identical(want) {
			return
		}
		gf, _ := got.AsFloat()
		wf, _ := want.AsFloat()
		if got.Kind() == KindFloat && want.Kind() == KindFloat && math.IsNaN(gf) && math.IsNaN(wf) {
			return
		}
		t.Fatalf("Parse(%q) = %#v (%v), reference %#v (%v)", s, got, got.Kind(), want, want.Kind())
	})
}

func FuzzParseNeverPanics(f *testing.F) {
	f.Add("42")
	f.Add("2.5")
	f.Add("true")
	f.Add("NULL")
	f.Add("Paris")
	f.Add("-1e308")
	f.Fuzz(func(t *testing.T, input string) {
		v := Parse(input)
		// Rendering must never panic, and a re-parse of the rendering
		// must be Equal or both NULL (parsing is idempotent after one
		// round).
		s := v.String()
		again := Parse(s)
		if !v.IsNull() && !again.IsNull() {
			if again.Kind() != v.Kind() && !(isNumeric(again.Kind()) && isNumeric(v.Kind())) && v.Kind() != KindString {
				t.Fatalf("kind drifted: %v -> %v (input %q)", v.Kind(), again.Kind(), input)
			}
		}
	})
}

func FuzzFromTag(f *testing.F) {
	f.Add("i:42")
	f.Add("s:hello")
	f.Add("n:")
	f.Add("f:2.5")
	f.Add("b:true")
	f.Add("x:?")
	f.Fuzz(func(t *testing.T, input string) {
		v, err := FromTag(input)
		if err != nil {
			return
		}
		// A decodable tag must re-encode to something that decodes to
		// an identical value. NaN floats are the one exception to
		// structural identity: NaN != NaN, but a NaN-for-NaN round
		// trip is correct.
		back, err := FromTag(v.Tag())
		if err != nil {
			t.Fatalf("re-decoding own tag %q: %v", v.Tag(), err)
		}
		if vf, ok := v.AsFloat(); ok && math.IsNaN(vf) {
			bf, ok := back.AsFloat()
			if !ok || !math.IsNaN(bf) {
				t.Fatalf("NaN round trip changed %#v -> %#v", v, back)
			}
			return
		}
		if !back.Identical(v) {
			t.Fatalf("tag round trip changed %#v -> %#v", v, back)
		}
	})
}

// FuzzFloatSemantics holds floats to float64 semantics whatever their
// bit patterns: Identical is float64 ==, so NaN is identical to
// nothing and +0 to -0; Equal and Compare treat every NaN as one value
// above every other number; the tag is strconv's 'g' rendering; and an
// int is never identical to a float.
func FuzzFloatSemantics(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	for _, p := range [][2]uint64{
		{nan, nan},
		{nan, nan ^ 1},
		{0, math.Float64bits(math.Copysign(0, -1))},
		{math.Float64bits(1), math.Float64bits(1)},
		{math.Float64bits(math.Inf(1)), nan},
		{math.Float64bits(math.Inf(-1)), math.Float64bits(-math.MaxFloat64)},
		{math.Float64bits(1 << 53), math.Float64bits(1<<53 + 2)},
		{1, 2}, // subnormals
	} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, abits, bbits uint64) {
		a, b := math.Float64frombits(abits), math.Float64frombits(bbits)
		va, vb := Float(a), Float(b)
		if got := va.Identical(vb); got != (a == b) {
			t.Fatalf("Float(%v).Identical(Float(%v)) = %v", a, b, got)
		}
		aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
		want := 0
		switch {
		case aNaN && bNaN:
		case aNaN || a > b:
			want = 1
		case bNaN || a < b:
			want = -1
		}
		if got := va.Compare(vb); got != want {
			t.Fatalf("Float(%v).Compare(Float(%v)) = %d, want %d", a, b, got, want)
		}
		if got := va.Equal(vb); got != (want == 0) {
			t.Fatalf("Float(%v).Equal(Float(%v)) = %v", a, b, got)
		}
		if got, want := va.Tag(), "f:"+strconv.FormatFloat(a, 'g', -1, 64); got != want {
			t.Fatalf("Float(%v).Tag() = %q, want %q", a, got, want)
		}
		if i := int64(abits); va.Identical(Int(i)) || Int(i).Identical(va) {
			t.Fatalf("Float(%v) is identical to Int(%d)", a, i)
		}
	})
}
