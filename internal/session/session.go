package session

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/values"
)

// FormatVersion identifies the session file layout being written.
// Version 2 adds BaseRows, recording how much of the instance was
// present at session creation versus streamed in afterwards via
// State.Append. Load accepts both versions: v1 files read as sessions
// whose whole instance was present at creation.
const FormatVersion = 2

// minFormatVersion is the oldest layout Load still accepts.
const minFormatVersion = 1

// Meta carries run metadata that is not part of the inference state.
type Meta struct {
	// Strategy is the strategy name the session was driven with.
	Strategy string `json:"strategy,omitempty"`
	// CreatedAt is the session creation time.
	CreatedAt time.Time `json:"created_at,omitempty"`
	// Note is a free-form user note.
	Note string `json:"note,omitempty"`
}

// LabelEntry is one explicit label, in the order it was given.
type LabelEntry struct {
	Index int    `json:"index"`
	Label string `json:"label"` // "+" or "-"
}

// File is the on-disk session layout. Tuples are stored with tagged
// value encoding (values.Tag) so reloading never re-infers cell kinds
// and Eq signatures survive the round trip exactly.
type File struct {
	Version int      `json:"version"`
	Meta    Meta     `json:"meta"`
	Schema  []string `json:"schema"`
	// BaseRows is how many leading Rows were present at session
	// creation; the rest arrived via streaming appends and are replayed
	// through State.Append on load. In a v2 file, 0 (the omitted
	// default) means the session was created over an empty instance
	// and every row streamed in; v1 files have no appends, so the
	// whole instance reads as present at creation.
	BaseRows int        `json:"base_rows,omitempty"`
	Rows     [][]string `json:"rows"`
	// Labels holds explicit labels (implied labels are recomputed on
	// load).
	Labels []LabelEntry `json:"labels"`
}

// Save writes the state and metadata as a session file. Only explicit
// labels are stored; replay order is by tuple index, which yields an
// identical state because explicit-label application commutes for
// consistent label sets. Sessions whose instance grew after creation
// round-trip: BaseRows records the creation-time prefix, and Load
// streams the remainder back in through State.Append.
func Save(w io.Writer, st *core.State, meta Meta) error {
	rel := st.Relation()
	f := File{
		Version:  FormatVersion,
		Meta:     meta,
		Schema:   rel.Schema().Names(),
		BaseRows: st.BaseLen(),
	}
	f.Rows = make([][]string, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		t := rel.Tuple(i)
		row := make([]string, len(t))
		for c, v := range t {
			row[c] = v.Tag()
		}
		f.Rows[i] = row
		switch st.Label(i) {
		case core.Positive:
			f.Labels = append(f.Labels, LabelEntry{Index: i, Label: "+"})
		case core.Negative:
			f.Labels = append(f.Labels, LabelEntry{Index: i, Label: "-"})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("session: encoding: %w", err)
	}
	return nil
}

// Load reads a session file (format v1 or v2) to its end and
// reconstructs the inference state with LoadBytes.
func Load(r io.Reader) (*core.State, Meta, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("session: reading: %w", err)
	}
	return LoadBytes(b)
}

// LoadBytes reconstructs the inference state from a session file held
// in memory: the creation-time prefix rebuilds through NewState, rows
// that arrived later stream back in through State.Append, and the
// explicit labels replay on top. The file must hold exactly one JSON
// value, as json.Unmarshal requires; trailing data is an error.
func LoadBytes(b []byte) (*core.State, Meta, error) {
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, Meta{}, fmt.Errorf("session: decoding: %w", err)
	}
	if f.Version < minFormatVersion || f.Version > FormatVersion {
		return nil, Meta{}, fmt.Errorf("session: unsupported format version %d (want %d..%d)",
			f.Version, minFormatVersion, FormatVersion)
	}
	schema, err := relation.NewSchema(f.Schema...)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("session: decoding schema: %w", err)
	}
	tuples := make([]relation.Tuple, 0, len(f.Rows))
	for ri, row := range f.Rows {
		if len(row) != schema.Len() {
			return nil, Meta{}, fmt.Errorf("session: row %d has %d cells, schema has %d", ri, len(row), schema.Len())
		}
		t := make(relation.Tuple, len(row))
		for c, tag := range row {
			v, err := values.FromTag(tag)
			if err != nil {
				return nil, Meta{}, fmt.Errorf("session: row %d column %d: %w", ri, c, err)
			}
			t[c] = v
		}
		tuples = append(tuples, t)
	}
	base := f.BaseRows
	if f.Version < 2 {
		base = len(tuples) // v1 file: the whole instance was present at creation
	}
	if base < 0 || base > len(tuples) {
		return nil, Meta{}, fmt.Errorf("session: base_rows %d out of range [0,%d]", f.BaseRows, len(tuples))
	}
	rel := relation.New(schema)
	rel.MustAppend(tuples[:base]...)
	st, err := core.NewState(rel)
	if err != nil {
		return nil, Meta{}, err
	}
	if _, err := st.Append(tuples[base:]); err != nil {
		return nil, Meta{}, fmt.Errorf("session: replaying appended rows: %w", err)
	}
	for _, e := range f.Labels {
		var l core.Label
		switch e.Label {
		case "+":
			l = core.Positive
		case "-":
			l = core.Negative
		default:
			return nil, Meta{}, fmt.Errorf("session: unknown label %q for tuple %d", e.Label, e.Index)
		}
		if e.Index < 0 || e.Index >= rel.Len() {
			return nil, Meta{}, fmt.Errorf("session: label index %d out of range [0,%d)", e.Index, rel.Len())
		}
		if st.Label(e.Index).IsExplicit() {
			return nil, Meta{}, fmt.Errorf("session: duplicate label for tuple %d", e.Index)
		}
		if _, err := st.Apply(e.Index, l); err != nil {
			return nil, Meta{}, fmt.Errorf("session: replaying label %d: %w", e.Index, err)
		}
	}
	return st, f.Meta, nil
}
