package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

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
// parse arrivals under the same rules. It reads r to the end and
// parses what it read with ReadCSVString.
func ReadCSVTyped(r io.Reader, opts CSVOptions) (*Relation, *Typing, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, nil, fmt.Errorf("relation: reading CSV: %w", err)
	}
	return ReadCSVString(b.String(), opts)
}

// ReadCSVString is ReadCSVTyped over an input already held in memory.
//
// Input with no '"' and no '\r' under a single-byte separator — the
// shape generated and exported instances have — is split in place:
// for it encoding/csv reduces to "skip empty lines, split on '\n' and
// the separator", which lineScanner does without copying. Any other
// input (quoted fields, CRLF line ends, a multi-byte or invalid
// separator) goes through encoding/csv. Both feed the same record
// loop, so the accepted inputs, errors and values are identical.
//
// Either way the cells are parsed straight into the relation's one
// batch (see Batch), on the scanner path into columns sized exactly
// by a line count. Nothing kept points into s: schema names are
// cloned and string cells copied into the batch's arena, so a large
// request body is not pinned by the session it creates.
func ReadCSVString(s string, opts CSVOptions) (*Relation, *Typing, error) {
	comma := opts.Comma
	if comma == 0 {
		comma = ','
	}
	if comma < utf8.RuneSelf && validDelim(comma) &&
		strings.IndexByte(s, '"') < 0 && strings.IndexByte(s, '\r') < 0 {
		sc := &lineScanner{rest: s, comma: byte(comma)}
		return readRecords(sc, opts, countLines(s))
	}
	cr := csv.NewReader(strings.NewReader(s))
	cr.Comma = comma
	cr.FieldsPerRecord = -1 // validated manually for better errors
	// Every record is parsed into fresh values before the next read, so
	// the reader may reuse its record slice.
	cr.ReuseRecord = true
	return readRecords(cr, opts, -1)
}

// validDelim is encoding/csv's rule for a usable separator; the
// scanner takes only separators encoding/csv would accept, so an
// invalid one fails there with encoding/csv's error.
func validDelim(r rune) bool {
	return r != 0 && r != '"' && r != '\r' && r != '\n' && utf8.ValidRune(r) && r != utf8.RuneError
}

// recordReader is the record source of readRecords: *csv.Reader with
// ReuseRecord set, or a lineScanner.
type recordReader interface {
	Read() ([]string, error)
}

// lineScanner yields the records of an input holding no '"' and no
// '\r': its non-empty lines, split on the separator. Fields are
// substrings of the input, and the record slice is reused.
type lineScanner struct {
	rest  string
	comma byte
	rec   []string
}

func (sc *lineScanner) Read() ([]string, error) {
	for sc.rest != "" {
		line := sc.rest
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, sc.rest = line[:i], line[i+1:]
		} else {
			sc.rest = ""
		}
		if line == "" {
			continue // encoding/csv skips empty lines
		}
		rec := sc.rec[:0]
		for {
			i := strings.IndexByte(line, sc.comma)
			if i < 0 {
				break
			}
			rec = append(rec, line[:i])
			line = line[i+1:]
		}
		sc.rec = append(rec, line)
		return sc.rec, nil
	}
	return nil, io.EOF
}

// countLines counts the non-empty lines of s: the records lineScanner
// will yield.
func countLines(s string) int {
	n := 0
	for s != "" {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			return n + 1
		}
		if i > 0 {
			n++
		}
		s = s[i+1:]
	}
	return n
}

// readRecords builds the relation from rr's records: the header (unless
// opts.NoHeader), then one tuple per record, parsed straight into the
// columns of one batch. records, when known (not -1), is the total
// record count, and sizes the columns exactly.
func readRecords(rr recordReader, opts CSVOptions, records int) (*Relation, *Typing, error) {
	var (
		schema *Schema
		ty     *Typing
		bb     batchBuilder
		infer  bool // no column is typed: every cell goes to values.Parse
		row    = 0
	)
	for {
		rec, err := rr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("relation: reading CSV record %d: %w", row, err)
		}
		row++
		if schema == nil {
			if schema, ty, err = header(rec, opts); err != nil {
				return nil, nil, err
			}
			infer = ty.Empty()
			rows := max(records, 0)
			if rows > 0 && !opts.NoHeader {
				rows--
			}
			bb = newBatchBuilder(schema.Len(), rows)
			if !opts.NoHeader {
				continue
			}
		}
		if len(rec) != schema.Len() {
			return nil, nil, fmt.Errorf("relation: CSV record %d has %d fields, want %d", row, len(rec), schema.Len())
		}
		if col, err := bb.parseRow(rec, ty, infer); err != nil {
			return nil, nil, fmt.Errorf("relation: CSV record %d column %q: %w", row, schema.Name(col), err)
		}
	}
	if schema == nil {
		return nil, nil, fmt.Errorf("relation: empty CSV input")
	}
	rel := New(schema)
	rel.adopt(bb.batch())
	return rel, ty, nil
}

// ErrRowWidth reports a raw row whose cell count differs from the
// schema's width.
var ErrRowWidth = errors.New("relation: row width does not match the schema")

// ParseRows parses raw string rows, one cell per schema column, into a
// batch under ty, cell for cell as ReadCSVString parses a record: the
// rows encoding of an append. Nothing the batch holds points into
// rows — string cells are copied into its arena — so rows may be views
// into a buffer the caller reuses once ParseRows returns. A row of the
// wrong width fails with ErrRowWidth, an unparsable cell with its parse
// error; the error keeps nothing of rows either.
func ParseRows(schema *Schema, ty *Typing, rows [][]string) (*Batch, error) {
	width, infer := schema.Len(), ty.Empty()
	bb := newBatchBuilder(width, len(rows))
	for ri, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("%w: row %d has %d cells, schema %v has %d", ErrRowWidth, ri, len(row), schema, width)
		}
		if col, err := bb.parseRow(row, ty, infer); err != nil {
			return nil, fmt.Errorf("relation: row %d column %q: %w", ri, schema.Name(col), err)
		}
	}
	return bb.batch(), nil
}

// ParseTagged parses rows in tagged-value encoding (values.Tag), one
// cell per schema column, into a batch: the decoder of AppendTagged,
// in which session files and WAL append events store rows. As with
// ParseRows, nothing the batch or an error holds points into rows, and
// a row of the wrong width fails with ErrRowWidth.
func ParseTagged(schema *Schema, rows [][]string) (*Batch, error) {
	width := schema.Len()
	bb := newBatchBuilder(width, len(rows))
	for ri, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("%w: row %d has %d cells, schema %v has %d", ErrRowWidth, ri, len(row), schema, width)
		}
		if col, err := bb.parseTagged(row); err != nil {
			return nil, fmt.Errorf("relation: row %d column %q: %w", ri, schema.Name(col), err)
		}
	}
	return bb.batch(), nil
}

// AppendTagged appends the rows of b to dst in tagged-value encoding,
// one values.Tag string per cell: the encoder ParseTagged reads. Every
// cell views one buffer and every row, at full capacity, one cell
// array, so the allocation count does not grow with the batch.
func (b *Batch) AppendTagged(dst [][]string) [][]string {
	ncells := b.rows * b.arity
	// 24 bytes hold any non-string tag but a long float's, and the arena
	// holds a string tag's text.
	buf := make([]byte, 0, len(b.arena)+24*ncells)
	cells := make([]string, ncells)
	for j := range cells {
		start := len(buf)
		buf = values.AppendTag(buf, b.cell(j))
		// Appends write past len(buf) and growth leaves the old array as
		// it was, so a view's bytes never change; no tag is empty.
		cells[j] = unsafe.String(&buf[start], len(buf)-start)
	}
	dst = slices.Grow(dst, b.rows)
	for r := range b.rows {
		dst = append(dst, cells[r*b.arity:(r+1)*b.arity:(r+1)*b.arity])
	}
	return dst
}

// parseRow parses rec into the builder's next row under ty (infer: ty
// types no column, so every cell goes to values.Parse). On failure it
// returns the column and the error of the first bad cell, and the
// builder must not be used again. The error holds no view of the cell:
// ParseAs formats it into the message, and the strconv.NumError it
// wraps records a copy.
func (bb *batchBuilder) parseRow(rec []string, ty *Typing, infer bool) (int, error) {
	start := bb.next()
	if infer {
		for i, cell := range rec {
			bb.set(start, i, values.Parse(cell))
		}
	} else {
		for i, cell := range rec {
			v, err := ty.ParseCell(i, cell)
			if err != nil {
				return i, err
			}
			bb.set(start, i, v)
		}
	}
	return 0, nil
}

// parseTagged decodes row, one values.Tag string per cell, into the
// builder's next row. On failure it returns the column and the error
// of the first bad tag, and the builder must not be used again.
func (bb *batchBuilder) parseTagged(row []string) (int, error) {
	start := bb.next()
	for i, tag := range row {
		v, err := values.FromTag(tag)
		if err != nil {
			return i, err
		}
		bb.set(start, i, v)
	}
	return 0, nil
}

// header builds the schema and typing from the first record: its cells
// are the attribute names, each optionally annotated with a kind, or,
// under opts.NoHeader, only its width counts and the names are c0,
// c1, .... A typing forced through opts overrides the header's.
func header(rec []string, opts CSVOptions) (*Schema, *Typing, error) {
	names := make([]string, len(rec))
	ty := &Typing{kinds: make([]values.Kind, len(rec)), typed: make([]bool, len(rec))}
	for i, h := range rec {
		if opts.NoHeader {
			names[i] = "c" + strconv.Itoa(i)
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
	cloneJoined(names)
	schema, err := NewSchema(names...)
	if err != nil {
		return nil, nil, err
	}
	if opts.Typing != nil {
		if len(opts.Typing.typed) != schema.Len() {
			return nil, nil, fmt.Errorf("%w: typing covers %d columns, CSV has %d",
				ErrTypingMismatch, len(opts.Typing.typed), schema.Len())
		}
		ty = opts.Typing
	}
	return schema, ty, nil
}

// cloneJoined re-points every string of parts into one fresh string
// holding their bytes back to back.
func cloneJoined(parts []string) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		b.WriteString(p)
	}
	all := b.String()
	for i, p := range parts {
		parts[i], all = all[:len(p)], all[len(p):]
	}
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
	var t Tuple
	for i := range r.n {
		t = r.AppendTuple(t[:0], i)
		for c, v := range t {
			rec[c] = EncodeCell(v)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation: writing CSV record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
