package values

import (
	"fmt"
	"strconv"
	"strings"
)

// Tag returns a compact, unambiguous text encoding of the value:
// "n:" (NULL), "b:true", "i:42", "f:2.5", "s:text". Unlike String,
// decoding a tag never re-infers the kind, so tagged round trips
// preserve Eq signatures exactly — session files rely on this.
func (v Value) Tag() string {
	var buf [32]byte
	return string(AppendTag(buf[:0], v))
}

// AppendTag appends the Tag encoding of v to dst and returns the
// extended slice, so a caller tagging many values fills one buffer.
func AppendTag(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "n:"...)
	case KindBool:
		return strconv.AppendBool(append(dst, "b:"...), v.bool())
	case KindInt:
		return strconv.AppendInt(append(dst, "i:"...), v.int(), 10)
	case KindFloat:
		return strconv.AppendFloat(append(dst, "f:"...), v.float(), 'g', -1, 64)
	default:
		return append(append(dst, "s:"...), v.s...)
	}
}

// FromTag decodes a value encoded by Tag.
func FromTag(s string) (Value, error) {
	kind, payload, ok := strings.Cut(s, ":")
	if !ok {
		return Value{}, fmt.Errorf("values: malformed tag %q", s)
	}
	switch kind {
	case "n":
		if payload != "" {
			return Value{}, fmt.Errorf("values: null tag with payload %q", payload)
		}
		return Null(), nil
	case "b":
		b, err := strconv.ParseBool(payload)
		if err != nil {
			return Value{}, fmt.Errorf("values: bool tag %q: %w", s, err)
		}
		return Bool(b), nil
	case "i":
		i, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("values: int tag %q: %w", s, err)
		}
		return Int(i), nil
	case "f":
		f, err := strconv.ParseFloat(payload, 64)
		if err != nil {
			return Value{}, fmt.Errorf("values: float tag %q: %w", s, err)
		}
		return Float(f), nil
	case "s":
		return String_(payload), nil
	}
	return Value{}, fmt.Errorf("values: unknown tag kind %q in %q", kind, s)
}
