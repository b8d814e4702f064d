package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/values"
)

func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("a:int,b:string\n1,x\n")
	f.Add("a\n\n")
	f.Add("x,y,z\nParis,2.5,true\nNYC,,false\n")
	f.Add("h1,h2\n\"quo\"\"ted\",2\n")
	f.Fuzz(func(t *testing.T, input string) {
		rel, err := ReadCSV(strings.NewReader(input), CSVOptions{})
		if err != nil {
			return // malformed input is fine; panics are not
		}
		// A successfully parsed relation must re-serialize and re-parse
		// to the same shape.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatalf("WriteCSV after successful read: %v", err)
		}
		back, err := ReadCSV(&buf, CSVOptions{})
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.Len() != rel.Len() || back.Schema().Len() != rel.Schema().Len() {
			t.Fatalf("shape changed: %dx%d -> %dx%d",
				rel.Len(), rel.Schema().Len(), back.Len(), back.Schema().Len())
		}
	})
}

// FuzzReadCSVMatchesEncodingCSV holds ReadCSVString — the in-place
// scanner and its encoding/csv fallback — to referenceReadCSV, a
// record-at-a-time reader over encoding/csv: on every input, separator
// and header mode both accept or both reject with the same error, and
// an accepted input yields the same schema, the same typing and
// Identical tuples.
func FuzzReadCSVMatchesEncodingCSV(f *testing.F) {
	// testdata/fuzz/FuzzReadCSVMatchesEncodingCSV holds the shapes
	// that separate the two readers: quotes, "" escapes, CRLF, lone CR,
	// blank lines, no final newline, ragged rows, a BOM, NULL cells and
	// typed headers, under each separator.
	f.Add("a,b\n1,2\n", byte(0), false)
	f.Fuzz(func(t *testing.T, input string, sep byte, noHeader bool) {
		opts := CSVOptions{Comma: []rune{',', ';', '\t'}[sep%3], NoHeader: noHeader}
		rel, ty, err := ReadCSVString(input, opts)
		want, wantTy, wantErr := referenceReadCSV(input, opts)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !rel.Schema().Equal(want.Schema()) {
			t.Fatalf("schema %v, reference %v", rel.Schema(), want.Schema())
		}
		if got, exp := fmt.Sprint(ty.Annotations()), fmt.Sprint(wantTy.Annotations()); got != exp {
			t.Fatalf("typing %s, reference %s", got, exp)
		}
		if rel.Len() != want.Len() {
			t.Fatalf("%d tuples, reference %d", rel.Len(), want.Len())
		}
		for i := 0; i < rel.Len(); i++ {
			if !identicalOrNaN(rel.Tuple(i), want.Tuple(i)) {
				t.Fatalf("tuple %d = %#v, reference %#v", i, rel.Tuple(i), want.Tuple(i))
			}
		}
	})
}

// identicalOrNaN is Tuple.Identical with a NaN float identical to a NaN
// float ("NaN" parses to one, and NaN != NaN).
func identicalOrNaN(t, u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		f, fok := t[i].AsFloat()
		g, gok := u[i].AsFloat()
		nan := fok && gok && f != f && g != g
		if !nan && !t[i].Identical(u[i]) {
			return false
		}
	}
	return true
}

// referenceReadCSV is the reader ReadCSVString replaced: encoding/csv
// one record at a time, one allocated tuple per record.
func referenceReadCSV(input string, opts CSVOptions) (*Relation, *Typing, error) {
	cr := csv.NewReader(strings.NewReader(input))
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	var (
		schema *Schema
		ty     *Typing
		rel    *Relation
		row    = 0
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("relation: reading CSV record %d: %w", row, err)
		}
		row++
		if schema == nil {
			names := make([]string, len(rec))
			ty = &Typing{kinds: make([]values.Kind, len(rec)), typed: make([]bool, len(rec))}
			for i, h := range rec {
				if opts.NoHeader {
					names[i] = fmt.Sprintf("c%d", i)
					continue
				}
				name, kindStr, found := strings.Cut(h, ":")
				names[i] = strings.TrimSpace(name)
				if found {
					k, err := values.KindFromString(kindStr)
					if err != nil {
						return nil, nil, fmt.Errorf("relation: header %q: %w", h, err)
					}
					ty.kinds[i] = k
					ty.typed[i] = true
				}
			}
			if schema, err = NewSchema(names...); err != nil {
				return nil, nil, err
			}
			rel = New(schema)
			if !opts.NoHeader {
				continue
			}
		}
		if len(rec) != schema.Len() {
			return nil, nil, fmt.Errorf("relation: CSV record %d has %d fields, want %d", row, len(rec), schema.Len())
		}
		t := make(Tuple, len(rec))
		for i, cell := range rec {
			v, err := ty.ParseCell(i, cell)
			if err != nil {
				return nil, nil, fmt.Errorf("relation: CSV record %d column %q: %w", row, schema.Name(i), err)
			}
			t[i] = v
		}
		rel.MustAppend(t)
	}
	if schema == nil {
		return nil, nil, fmt.Errorf("relation: empty CSV input")
	}
	return rel, ty, nil
}
