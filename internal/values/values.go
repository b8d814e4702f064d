// Package values implements the typed scalar values stored in relations.
//
// A Value is an immutable tagged union over NULL, booleans, 64-bit
// integers, 64-bit floats, and strings, held in 16 bytes: a pointer
// and a payload word (see Value). Values carry SQL-style equality
// (NULL is not equal to anything, including NULL) and define a total
// order used for sorting and deterministic output. A Value is not a
// comparable Go value: == would compare a string's address, not its
// contents, so it does not compile, and Values cannot key maps.
// Callers compare with Identical or Equal. reflect.DeepEqual follows
// the pointer and compares one byte of a string, so it must not be
// used on Values either.
package values

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
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
// The layout is 16 bytes: a pointer p and a 64-bit word n. A string
// Value points p at its bytes and holds its length in n. A bool, int
// or float Value points p at its kind's sentinel byte in kinds and
// holds the payload in n: 0 or 1, two's complement, or IEEE-754 bits.
// NULL is p == nil, and the empty string points at the string
// sentinel, so it is not NULL. The zero-length func array makes ==
// a compile error: it would compare string addresses, not contents.
type Value struct {
	_ [0]func()
	p *byte
	n uint64
}

// kinds holds one sentinel byte per kind. A non-string, non-NULL
// Value points at the byte of its kind, so kind is one subtraction.
var kinds [KindString + 1]byte

// intKind is &kinds[KindInt], read by Equal's inlined fast path, where
// a package-level pointer costs less inlining budget than the address
// expression.
var intKind = &kinds[KindInt]

// sentinel returns a Value of a payload kind (bool, int or float).
func sentinel(k Kind, n uint64) Value { return Value{p: &kinds[k], n: n} }

// kind reports v's kind from where p points.
func (v Value) kind() Kind {
	if d := uintptr(unsafe.Pointer(v.p)) - uintptr(unsafe.Pointer(&kinds[0])); d < uintptr(len(kinds)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindNull
	}
	return KindString
}

// isString is kind() == KindString in one compare and a nil check: p
// is set, and no sentinel below the string one.
func (v Value) isString() bool {
	return uintptr(unsafe.Pointer(v.p))-uintptr(unsafe.Pointer(&kinds[0])) >= uintptr(KindString) && v.p != nil
}

// str returns the string payload. Only meaningful when v is a string.
// {p, n} is laid out as a string header, so str reads it as one
// without unsafe.String's length checks.
func (v Value) str() string { return *(*string)(unsafe.Pointer(&v.p)) }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return sentinel(KindBool, 1)
	}
	return sentinel(KindBool, 0)
}

// Int returns an integer value.
func Int(i int64) Value { return sentinel(KindInt, uint64(i)) }

// Float returns a float value.
func Float(f float64) Value { return sentinel(KindFloat, math.Float64bits(f)) }

// String_ returns a string value. (Named with a trailing underscore to
// keep the conventional String() method free for fmt.Stringer.)
func String_(s string) Value {
	if len(s) == 0 {
		return Value{p: &kinds[KindString]}
	}
	return Value{p: unsafe.StringData(s), n: uint64(len(s))}
}

// Str is a shorthand alias for String_.
func Str(s string) Value { return String_(s) }

// Word returns v's payload word: 0 or 1 for a bool, two's complement
// for an int, IEEE-754 bits for a float, 0 for NULL, and the byte
// length for a string. With Kind it is the whole of a non-string
// Value, the form a relation stores cells in (see FromWord).
func (v Value) Word() uint64 { return v.n }

// FromWord rebuilds the Value of kind k with payload word w, for the
// kinds whose Value Word and Kind describe whole: NULL (w is ignored),
// bool, int and float. A string has bytes Word does not carry, so a
// string kind panics.
func FromWord(k Kind, w uint64) Value {
	switch k {
	case KindNull:
		return Value{}
	case KindBool, KindInt, KindFloat:
		return sentinel(k, w)
	}
	panic(fmt.Sprintf("values: FromWord of kind %v", k))
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind() }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// AsBool returns the boolean payload; ok is false if v is not a bool.
func (v Value) AsBool() (b, ok bool) {
	if v.kind() != KindBool {
		return false, false
	}
	return v.bool(), true
}

// AsInt returns the integer payload; ok is false if v is not an int.
func (v Value) AsInt() (int64, bool) {
	if v.p != intKind {
		return 0, false
	}
	return v.int(), true
}

// AsFloat returns the numeric payload as float64 for ints and floats.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind() {
	case KindInt:
		return float64(v.int()), true
	case KindFloat:
		return v.float(), true
	}
	return 0, false
}

// AsString returns the string payload; ok is false if v is not a string.
func (v Value) AsString() (string, bool) {
	if !v.isString() {
		return "", false
	}
	return v.str(), true
}

// The payload word read as each kind. Only the reader matching v's
// kind means anything.
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
	if v.p == intKind && u.p == intKind {
		return v.n == u.n // inlined at the caller: the common case
	}
	return v.equalSlow(u)
}

// equalSlow is Equal for every pair that is not int against int.
func (v Value) equalSlow(u Value) bool {
	vk, uk := v.kind(), u.kind()
	if vk == KindNull || uk == KindNull {
		return false
	}
	if isNumeric(vk) && isNumeric(uk) {
		return cmpNumeric(v, u) == 0
	}
	if vk != uk {
		return false
	}
	switch vk {
	case KindBool:
		return v.n == u.n
	case KindString:
		return v.str() == u.str()
	}
	return false
}

// Identical reports structural equality, under which NULL is identical
// to NULL and an int is never identical to a float. Floats compare as
// float64 values: NaN is identical to nothing and +0 is identical to
// -0. Useful for tests and deduplication; join semantics use Equal.
func (v Value) Identical(u Value) bool {
	if v.p != u.p {
		return v.isString() && u.isString() && v.str() == u.str()
	}
	if v.p == &kinds[KindFloat] {
		return v.float() == u.float()
	}
	return v.n == u.n
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare returns -1, 0, or +1 ordering v relative to u under the total
// order NULL < bool < numeric < string, with false < true, exact
// numeric cross-kind comparison (NaN sorts above every other number),
// and lexicographic strings. For non-NULL values Compare returns 0
// exactly when Equal reports true.
func (v Value) Compare(u Value) int {
	vk := v.kind()
	vr, ur := rank(vk), rank(u.kind())
	if vr != ur {
		return cmp(vr, ur)
	}
	switch {
	case vk == KindNull:
		return 0
	case vk == KindBool:
		return cmpBool(v.bool(), u.bool())
	case vr == 2: // numeric band
		return cmpNumeric(v, u)
	default:
		return strings.Compare(v.str(), u.str())
	}
}

// cmpNumeric orders two numeric values exactly: ints against ints as
// integers, never through float64, which cannot hold every int64.
func cmpNumeric(v, u Value) int {
	vi, ui := v.p == intKind, u.p == intKind
	switch {
	case vi && ui:
		return cmp(v.int(), u.int())
	case !vi && !ui:
		return cmpFloat(v.float(), u.float())
	case vi:
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
	switch v.kind() {
	case KindNull:
		return ""
	case KindBool:
		return strconv.FormatBool(v.bool())
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	default:
		return v.str()
	}
}

// AppendString appends the String rendering of v to dst and returns
// the extended slice, so a caller rendering many cells fills one buffer.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind() {
	case KindNull:
		return dst
	case KindBool:
		return strconv.AppendBool(dst, v.bool())
	case KindInt:
		return strconv.AppendInt(dst, v.int(), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.float(), 'g', -1, 64)
	default:
		return append(dst, v.str()...)
	}
}

// GoString renders v unambiguously for debugging.
func (v Value) GoString() string {
	switch v.kind() {
	case KindNull:
		return "NULL"
	case KindString:
		return strconv.Quote(v.str())
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
// Anything else reports false and is left to strconv. From 8 digits
// on it takes 8 per step: a leading group of len mod 8 digits, then
// whole groups, each one 8-byte load checked and converted as a word.
func parseDecimal(s string) (int64, bool) {
	digits := s
	if s != "" && (s[0] == '+' || s[0] == '-') {
		digits = s[1:]
	}
	k := len(digits)
	if k == 0 || k > 18 {
		return 0, false
	}
	var n uint64
	if k < 8 {
		for i := 0; i < k; i++ {
			d := digits[i] - '0'
			if d > 9 {
				return 0, false
			}
			n = n*10 + uint64(d)
		}
	} else {
		if r := k % 8; r != 0 {
			// The first r digits, moved to the end of the word and
			// led by '0's, read as an 8-digit group of the same value.
			x := load8(digits)<<(8*(8-r)) | zeros8>>(8*r)
			if !eightDigits(x) {
				return 0, false
			}
			n = eightDigitsValue(x)
			digits = digits[r:]
		}
		for ; len(digits) >= 8; digits = digits[8:] {
			x := load8(digits)
			if !eightDigits(x) {
				return 0, false
			}
			n = n*1e8 + eightDigitsValue(x)
		}
	}
	if s[0] == '-' {
		return -int64(n), true
	}
	return int64(n), true
}

// zeros8 is eight '0' bytes.
const zeros8 = 0x3030303030303030

// load8 reads the first 8 bytes of s as a little-endian word, so the
// first byte is the lowest. The compiler merges it into one load.
func load8(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// eightDigits reports whether every byte of x is '0'-'9': its high
// nibble is 3, and stays 3 when 6 is added, so its low nibble is at
// most 9. Only a byte of 0xfa or above carries into the next, and such
// a byte fails the first test itself.
func eightDigits(x uint64) bool {
	return (x&0xf0f0f0f0f0f0f0f0)|((x+0x0606060606060606)&0xf0f0f0f0f0f0f0f0)>>4 == 0x3333333333333333
}

// eightDigitsValue converts 8 checked digit bytes, first digit lowest,
// to their value: pairs, then quads, then the whole group, each one
// multiply and shift.
func eightDigitsValue(x uint64) uint64 {
	x = (x & 0x0f0f0f0f0f0f0f0f) * (10<<8 + 1) >> 8
	x = (x & 0x00ff00ff00ff00ff) * (100<<16 + 1) >> 16
	return (x & 0x0000ffff0000ffff) * (10000<<32 + 1) >> 32
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
		if i, ok := parseDecimal(s); ok {
			return Int(i), nil
		}
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
