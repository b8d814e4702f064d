package values

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTagFormats(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), "n:"},
		{Bool(true), "b:true"},
		{Bool(false), "b:false"},
		{Int(-42), "i:-42"},
		{Float(2.5), "f:2.5"},
		{Str("hello"), "s:hello"},
		{Str(""), "s:"},
		{Str("42"), "s:42"},     // strings never collide with ints
		{Str("i:42"), "s:i:42"}, // embedded colons survive
	} {
		if got := tc.v.Tag(); got != tc.want {
			t.Errorf("%#v.Tag() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestFromTagErrors(t *testing.T) {
	for _, in := range []string{
		"",        // no separator
		"x:1",     // unknown kind
		"i:abc",   // bad int
		"f:abc",   // bad float
		"b:maybe", // bad bool
		"n:x",     // null with payload
		"42",      // untagged
	} {
		if _, err := FromTag(in); err == nil {
			t.Errorf("FromTag(%q) succeeded", in)
		}
	}
}

func TestPropertyTagRoundTripExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		back, err := FromTag(v.Tag())
		if err != nil {
			return false
		}
		// Identical, not just Equal: the kind survives too.
		return back.Identical(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTagDisambiguatesKinds(t *testing.T) {
	// The classic CSV-round-trip hazard: string "1" vs int 1.
	a := Str("1")
	b := Int(1)
	ra, err := FromTag(a.Tag())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := FromTag(b.Tag())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Equal(rb) {
		t.Error("tagged round trip merged string \"1\" with int 1")
	}
}

// legacyTag is the reference tag encoding — one string concatenation
// per value — that the buffer-appending encoder must reproduce byte
// for byte: WALs and replication streams already hold these bytes.
func legacyTag(v Value) string {
	switch v.kind {
	case KindNull:
		return "n:"
	case KindBool:
		return "b:" + strconv.FormatBool(v.bool())
	case KindInt:
		return "i:" + strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.float(), 'g', -1, 64)
	default:
		return "s:" + v.s
	}
}

func TestAppendTagMatchesLegacyTag(t *testing.T) {
	edge := []Value{
		Null(), Bool(true), Bool(false), Int(0), Int(math.MinInt64), Int(math.MaxInt64),
		Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(-1)), Float(1e-300), Float(1 << 53),
		Str(""), Str("a,b\n\"c\""), Str("ünïcödé ✓"), Str(strings.Repeat("long", 40)),
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		edge = append(edge, randomValue(r), Int(r.Int63()-r.Int63()), Float(r.NormFloat64()*1e6))
	}
	var buf []byte
	for _, v := range edge {
		want := legacyTag(v)
		if got := v.Tag(); got != want {
			t.Errorf("%#v.Tag() = %q, want %q", v, got, want)
		}
		prefix := len(buf)
		buf = AppendTag(buf, v)
		if got := string(buf[prefix:]); got != want {
			t.Errorf("AppendTag(%#v) appended %q, want %q", v, got, want)
		}
	}
}
