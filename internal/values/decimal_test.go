package values

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// decimalEdgeCases lists the inputs where an 8-digits-per-step integer
// scan can go wrong: every digit count from 1 to 19 with each sign,
// each position replaced by a byte just outside '0'-'9' or far from
// it, values next to a group boundary and at the int64 limits, and
// leading zeros.
func decimalEdgeCases() []string {
	const digits = "9876543210987654321"
	var out []string
	for k := 1; k <= 19; k++ {
		for _, sign := range []string{"", "+", "-"} {
			for _, body := range []string{digits[:k], strings.Repeat("9", k), "1" + strings.Repeat("0", k-1)} {
				s := sign + body
				out = append(out, s)
				for i := len(sign); i < len(s); i++ {
					for _, c := range []byte{'/', ':', ' ', 0x00, 0x80 | '5'} {
						b := []byte(s)
						b[i] = c
						out = append(out, string(b))
					}
				}
			}
		}
	}
	for _, k := range []int64{1, 2, 9, 10, 12345678, 99999999, 100000000, 1e8 + 1, 92233720367} {
		for _, d := range []int64{-1, 0, 1} {
			out = append(out, strconv.FormatInt(k*1e8+d, 10), strconv.FormatInt(-(k*1e8+d), 10))
		}
	}
	for _, d := range []int64{0, 1} {
		out = append(out,
			strconv.FormatInt(math.MaxInt64-d, 10), strconv.FormatInt(math.MinInt64+d, 10),
			"+"+strconv.FormatInt(math.MaxInt64-d, 10))
	}
	out = append(out, "9223372036854775808", "-9223372036854775809", "18446744073709551616",
		"0000000000000000042", "000000000000000042", "-00000000000000042", "+00000001",
		"00000000", "000000000", "-0000000000000000", "0000000000000000000", "00000000000000000000")
	return out
}

// wantDecimal is what parseDecimal must give: strconv's result on
// [+-]?[0-9]{1,18}, and false on everything else.
func wantDecimal(s string) (int64, bool) {
	digits := strings.TrimLeft(s, "+-")
	if len(s)-len(digits) > 1 || len(digits) == 0 || len(digits) > 18 || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		panic(fmt.Sprintf("strconv rejects %q: %v", s, err))
	}
	return i, true
}

func TestParseDecimalEdges(t *testing.T) {
	for _, s := range decimalEdgeCases() {
		got, ok := parseDecimal(s)
		want, wantOK := wantDecimal(s)
		if got != want || ok != wantOK {
			t.Errorf("parseDecimal(%q) = %d, %v; want %d, %v", s, got, ok, want, wantOK)
		}
	}
}

// FuzzIntTextMatchesStrconv holds the integer readers of typed text,
// ParseAs(s, KindInt) and FromTag("i:"+s), to strconv.ParseInt: the
// same value when it accepts, and the same error text when it rejects.
func FuzzIntTextMatchesStrconv(f *testing.F) {
	for _, s := range decimalEdgeCases() {
		f.Add(s)
	}
	f.Add("")
	f.Add("NULL")
	f.Add("1_000")
	f.Add("0x10")
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := strconv.ParseInt(s, 10, 64)
		v, err := ParseAs(s, KindInt)
		switch {
		case s == "" || s == "NULL" || s == "null":
			if err != nil || !v.IsNull() {
				t.Fatalf("ParseAs(%q, int) = %#v, %v; want NULL", s, v, err)
			}
		case werr != nil:
			if wantMsg := fmt.Sprintf("values: parsing %q as int: %v", s, werr); err == nil || err.Error() != wantMsg {
				t.Fatalf("ParseAs(%q, int) error %v, want %s", s, err, wantMsg)
			}
		case err != nil || !v.Identical(Int(want)):
			t.Fatalf("ParseAs(%q, int) = %#v, %v; want %d", s, v, err, want)
		}
		tag := "i:" + s
		v, err = FromTag(tag)
		if werr != nil {
			if wantMsg := fmt.Sprintf("values: int tag %q: %v", tag, werr); err == nil || err.Error() != wantMsg {
				t.Fatalf("FromTag(%q) error %v, want %s", tag, err, wantMsg)
			}
		} else if err != nil || !v.Identical(Int(want)) {
			t.Fatalf("FromTag(%q) = %#v, %v; want %d", tag, v, err, want)
		}
	})
}
