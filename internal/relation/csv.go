package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/values"
)

// CSVOptions controls CSV import.
type CSVOptions struct {
	// NoHeader generates attribute names c0, c1, ... instead of reading
	// the first record as a header.
	NoHeader bool
	// Comma overrides the field separator (default ',').
	Comma rune
	// Typing, when non-nil, forces the per-column parsing rules,
	// overriding any kind annotations in this input's header. Callers
	// appending to an existing relation pass its creation-time Typing
	// so cells in both inputs parse identically (a cell like "01"
	// must not flip from string to int between creation and append).
	Typing *Typing
}

// ErrTypingMismatch reports a forced CSVOptions.Typing whose column
// count does not match the input — for appenders, a schema mismatch.
var ErrTypingMismatch = errors.New("relation: forced typing does not match CSV columns")

// Typing records the per-column parsing rules of a typed CSV header
// ("price:float"): annotated columns parse strictly with
// values.ParseAs, the rest use values.Parse inference. The zero/nil
// value means all-inference.
type Typing struct {
	kinds []values.Kind
	typed []bool
}

// ParseCell parses one cell of column col under the typing.
func (ty *Typing) ParseCell(col int, cell string) (values.Value, error) {
	if ty != nil && col < len(ty.typed) && ty.typed[col] {
		return values.ParseAs(cell, ty.kinds[col])
	}
	return values.Parse(cell), nil
}

// Empty reports whether no column carries an annotation (so inference
// applies everywhere).
func (ty *Typing) Empty() bool {
	if ty == nil {
		return true
	}
	for _, t := range ty.typed {
		if t {
			return false
		}
	}
	return true
}

// Annotations renders the typing as per-column annotation strings —
// the kind name for annotated columns ("float"), "" for inference
// columns — the serializable form the durable session store records
// so a recovered session parses arrivals exactly like the original.
// An all-inference typing (nil included) returns nil.
func (ty *Typing) Annotations() []string {
	if ty.Empty() {
		return nil
	}
	out := make([]string, len(ty.typed))
	for i, typed := range ty.typed {
		if typed {
			out[i] = ty.kinds[i].String()
		}
	}
	return out
}

// TypingFromAnnotations rebuilds a Typing from Annotations output: a
// kind name pins the column, "" leaves it on inference. An empty or
// nil slice yields nil (all-inference), matching Annotations.
func TypingFromAnnotations(ann []string) (*Typing, error) {
	if len(ann) == 0 {
		return nil, nil
	}
	ty := &Typing{kinds: make([]values.Kind, len(ann)), typed: make([]bool, len(ann))}
	for i, a := range ann {
		if a == "" {
			continue
		}
		k, err := values.KindFromString(a)
		if err != nil {
			return nil, fmt.Errorf("relation: column %d: %w", i, err)
		}
		ty.kinds[i] = k
		ty.typed[i] = true
	}
	return ty, nil
}

// InferenceTyping returns an all-inference typing over n columns.
// Forcing it through CSVOptions.Typing pins every column to
// values.Parse even when the input's own header carries annotations —
// the contract appenders need when the original relation was created
// without typing.
func InferenceTyping(n int) *Typing {
	return &Typing{kinds: make([]values.Kind, n), typed: make([]bool, n)}
}

// ReadCSV reads a relation from CSV. A header cell may be annotated
// with a kind, e.g. "price:float" — annotated columns are parsed
// strictly with values.ParseAs, other columns use values.Parse type
// inference per cell. Empty and "NULL"/"null" cells become NULL in
// every column.
func ReadCSV(r io.Reader, opts CSVOptions) (*Relation, error) {
	rel, _, err := ReadCSVTyped(r, opts)
	return rel, err
}

// ReadCSVTyped is ReadCSV returning also the per-column parsing rules
// in effect, so callers that later append tuples to the relation can
// parse arrivals under the same rules.
func ReadCSVTyped(r io.Reader, opts CSVOptions) (*Relation, *Typing, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1 // validated manually for better errors
	// Every record is parsed into fresh values before the next read, so
	// the reader may reuse its record slice; the cell strings it hands
	// out are not reused.
	cr.ReuseRecord = true

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
			if opts.NoHeader {
				names := make([]string, len(rec))
				for i := range names {
					names[i] = fmt.Sprintf("c%d", i)
				}
				schema, err = NewSchema(names...)
				if err != nil {
					return nil, nil, err
				}
				ty = &Typing{kinds: make([]values.Kind, len(rec)), typed: make([]bool, len(rec))}
				rel = New(schema)
				// fall through: rec is data
			} else {
				names := make([]string, len(rec))
				ty = &Typing{kinds: make([]values.Kind, len(rec)), typed: make([]bool, len(rec))}
				for i, h := range rec {
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
				schema, err = NewSchema(names...)
				if err != nil {
					return nil, nil, err
				}
				rel = New(schema)
			}
			// The caller's typing, when given, overrides the header's.
			if opts.Typing != nil {
				if len(opts.Typing.typed) != schema.Len() {
					return nil, nil, fmt.Errorf("%w: typing covers %d columns, CSV has %d",
						ErrTypingMismatch, len(opts.Typing.typed), schema.Len())
				}
				ty = opts.Typing
			}
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
		rel.tuples = append(rel.tuples, t)
	}
	if schema == nil {
		return nil, nil, fmt.Errorf("relation: empty CSV input")
	}
	return rel, ty, nil
}

// EncodeCell renders one cell the way WriteCSV does: the literal
// "NULL" for nulls, v.String() otherwise — the spelling ReadCSV and
// Typing.ParseCell read back to an equal value. Callers streaming raw
// rows alongside a CSV-created relation use it so both encodings stay
// in lockstep.
func EncodeCell(v values.Value) string {
	if v.IsNull() {
		return "NULL"
	}
	return v.String()
}

// WriteCSV writes the relation as CSV with a plain header. NULLs are
// written as the literal "NULL" rather than the empty string: a
// single-column NULL row would otherwise serialize as a blank line,
// which encoding/csv silently skips on re-read (found by FuzzReadCSV).
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.schema.Names()); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	rec := make([]string, r.schema.Len())
	for _, t := range r.tuples {
		for i, v := range t {
			rec[i] = EncodeCell(v)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation: writing CSV record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
