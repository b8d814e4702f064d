// Package values implements the typed scalar values stored in relations.
//
// A Value is an immutable tagged union over NULL, booleans, 64-bit
// integers, 64-bit floats, and strings. Values carry SQL-style
// equality (NULL is not equal to anything, including NULL) and define
// a total order used for sorting and deterministic output. A Value is
// a comparable Go value, but == compares a float's bit pattern (NaN
// equals a NaN with the same bits, +0 differs from -0), so callers
// compare with Identical or Equal, never ==, and do not key maps on
// Values.
package values

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported kinds, ordered as they sort: NULL first, strings last.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case kind name as used in typed CSV headers.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromString parses a kind name from a typed CSV header annotation.
func KindFromString(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "null":
		return KindNull, nil
	case "bool", "boolean":
		return KindBool, nil
	case "int", "integer", "int64":
		return KindInt, nil
	case "float", "float64", "double", "real":
		return KindFloat, nil
	case "string", "str", "text", "varchar":
		return KindString, nil
	}
	return KindNull, fmt.Errorf("values: unknown kind %q", s)
}

// Value is an immutable typed scalar. The zero Value is NULL.
//
// The layout is 32 bytes: the string payload, one 64-bit word holding
// the bool (0 or 1), int (two's complement) or float (IEEE-754 bits)
// payload, and the kind. Every constructor leaves the fields a kind
// does not use at zero, so two Values of a non-float kind are
// identical exactly when they are ==.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// String_ returns a string value. (Named with a trailing underscore to
// keep the conventional String() method free for fmt.Stringer.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Str is a shorthand alias for String_.
func Str(s string) Value { return String_(s) }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if v is not a bool.
func (v Value) AsBool() (b, ok bool) { return v.bool(), v.kind == KindBool }

// AsInt returns the integer payload; ok is false if v is not an int.
func (v Value) AsInt() (int64, bool) { return v.int(), v.kind == KindInt }

// AsFloat returns the numeric payload as float64 for ints and floats.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.int()), true
	case KindFloat:
		return v.float(), true
	}
	return 0, false
}

// AsString returns the string payload; ok is false if v is not a string.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// The payload word read as each kind. Only the reader matching v.kind
// means anything.
func (v Value) bool() bool     { return v.n != 0 }
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }

// Equal reports SQL-style equality: NULL equals nothing (not even NULL),
// and integers compare numerically equal to floats with the same value.
// Numeric equality is exact — two distinct 64-bit integers are never
// equal, even where float64 cannot tell them apart — and NaN equals
// NaN, so Equal is an equivalence relation on non-NULL values (Eq
// signatures rely on that) and agrees with Compare.
func (v Value) Equal(u Value) bool {
	if v.kind == KindInt && u.kind == KindInt {
		return v.n == u.n // inlined at the caller: the common case
	}
	return v.equalSlow(u)
}

// equalSlow is Equal for every pair that is not int against int.
func (v Value) equalSlow(u Value) bool {
	if v.kind == KindNull || u.kind == KindNull {
		return false
	}
	if isNumeric(v.kind) && isNumeric(u.kind) {
		return cmpNumeric(v, u) == 0
	}
	if v.kind != u.kind {
		return false
	}
	switch v.kind {
	case KindBool:
		return v.n == u.n
	case KindString:
		return v.s == u.s
	}
	return false
}

// Identical reports structural equality, under which NULL is identical
// to NULL and an int is never identical to a float. Floats compare as
// float64 values: NaN is identical to nothing and +0 is identical to
// -0. Useful for tests and deduplication; join semantics use Equal.
func (v Value) Identical(u Value) bool {
	if v.kind == KindFloat && u.kind == KindFloat {
		return v.float() == u.float()
	}
	return v == u
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare returns -1, 0, or +1 ordering v relative to u under the total
// order NULL < bool < numeric < string, with false < true, exact
// numeric cross-kind comparison (NaN sorts above every other number),
// and lexicographic strings. For non-NULL values Compare returns 0
// exactly when Equal reports true.
func (v Value) Compare(u Value) int {
	vr, ur := rank(v.kind), rank(u.kind)
	if vr != ur {
		return cmp(vr, ur)
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		return cmpBool(v.bool(), u.bool())
	case vr == 2: // numeric band
		return cmpNumeric(v, u)
	default:
		return strings.Compare(v.s, u.s)
	}
}

// cmpNumeric orders two numeric values exactly: ints against ints as
// integers, never through float64, which cannot hold every int64.
func cmpNumeric(v, u Value) int {
	switch {
	case v.kind == KindInt && u.kind == KindInt:
		return cmp(v.int(), u.int())
	case v.kind == KindFloat && u.kind == KindFloat:
		return cmpFloat(v.float(), u.float())
	case v.kind == KindInt:
		return -cmpFloatInt(u.float(), v.int())
	default:
		return cmpFloatInt(v.float(), u.int())
	}
}

// two63 is 2^63, the first float64 above every int64.
const two63 = float64(1 << 63)

// cmpFloatInt orders a float against an int exactly.
func cmpFloatInt(f float64, i int64) int {
	switch {
	case f != f:
		return 1 // NaN
	case f < -two63:
		return -1
	case f >= two63:
		return 1
	}
	// f lies in [-2^63, 2^63), so its integer part converts exactly;
	// when the integer parts tie, the fraction decides.
	t := math.Trunc(f)
	if c := cmp(int64(t), i); c != 0 {
		return c
	}
	return cmpFloat(f, t)
}

func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func cmp[T int | int64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat orders floats with NaN equal to itself and above every
// other float, so the order stays total.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch an, bn := a != a, b != b; {
	case an && bn:
		return 0
	case an:
		return 1
	}
	return -1
}

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

// String renders v for display and CSV output. NULL renders as the empty
// string; note that round-tripping through Parse re-infers kinds, so a
// string value "42" needs a typed header to survive a round trip.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindBool:
		return strconv.FormatBool(v.bool())
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	default:
		return v.s
	}
}

// AppendString appends the String rendering of v to dst and returns
// the extended slice, so a caller rendering many cells fills one buffer.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return dst
	case KindBool:
		return strconv.AppendBool(dst, v.bool())
	case KindInt:
		return strconv.AppendInt(dst, v.int(), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.float(), 'g', -1, 64)
	default:
		return append(dst, v.s...)
	}
}

// GoString renders v unambiguously for debugging.
func (v Value) GoString() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return strconv.Quote(v.s)
	default:
		return v.String()
	}
}

// Parse infers a Value from text: empty or "NULL" is NULL, then bool,
// int, and float literals, falling back to a string value.
func Parse(s string) Value {
	switch s {
	case "", "NULL", "null":
		return Null()
	case "true", "TRUE", "True":
		return Bool(true)
	case "false", "FALSE", "False":
		return Bool(false)
	}
	if i, ok := parseDecimal(s); ok {
		return Int(i)
	}
	if !mayBeNumber(s) {
		return String_(s)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return String_(s)
}

// parseDecimal reads s as [+-]?[0-9]{1,18}, the integers that always
// fit in an int64, with the result strconv.ParseInt(s, 10, 64) gives.
// Anything else reports false and is left to strconv.
func parseDecimal(s string) (int64, bool) {
	digits := s
	if s[0] == '+' || s[0] == '-' {
		digits = s[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	if s[0] == '-' {
		n = -n
	}
	return n, true
}

// mayBeNumber reports whether s (non-empty) can be a literal that
// strconv.ParseInt or strconv.ParseFloat accepts: it starts with a
// digit, a sign or a decimal point, or it is one of the unsigned
// special floats "inf", "infinity" and "nan" in any case. Words like
// "NYC" or "None" are thus strings without a failed strconv call,
// whose error allocates.
func mayBeNumber(s string) bool {
	switch c := s[0]; {
	case '0' <= c && c <= '9':
		return true
	case c == '+', c == '-', c == '.':
		return true
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
	}
	return false
}

// ParseAs parses text as a specific kind, as directed by a typed CSV
// header. Empty text and the NULL literals Parse accepts ("NULL",
// "null") are NULL for every kind, so a cell encoded by
// relation.EncodeCell reads back under any typing.
func ParseAs(s string, k Kind) (Value, error) {
	switch s {
	case "", "NULL", "null":
		return Null(), nil
	}
	switch k {
	case KindNull:
		return Null(), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("values: parsing %q as bool: %w", s, err)
		}
		return Bool(b), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("values: parsing %q as int: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("values: parsing %q as float: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return String_(s), nil
	}
	return Value{}, fmt.Errorf("values: cannot parse as %v", k)
}
