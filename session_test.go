package jim_test

import (
	"errors"
	"net/http"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/workload"
)

const sessionTestCSV = `From,To,Airline,City,Discount
Paris,Lille,AF,NYC,AA
Paris,Lille,AF,Paris,None
Paris,Lille,AF,Lille,AF
Lille,NYC,AA,NYC,AA
Lille,NYC,AA,Paris,None
Lille,NYC,AA,Lille,AF
NYC,Paris,AA,NYC,AA
NYC,Paris,AA,Paris,None
NYC,Paris,AA,Lille,AF
Paris,NYC,AF,NYC,AA
Paris,NYC,AF,Paris,None
Paris,NYC,AF,Lille,AF
`

func travelSession(t *testing.T, opts ...jim.SessionOption) *jim.Session {
	t.Helper()
	rel, err := jim.ReadCSV(strings.NewReader(sessionTestCSV))
	if err != nil {
		t.Fatal(err)
	}
	s, err := jim.NewSession(rel, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func travelGoal(t *testing.T, s *jim.Session) jim.Predicate {
	t.Helper()
	goal, err := jim.PredicateFromAtoms(s.Relation().Schema(), [][2]string{
		{"To", "City"}, {"Airline", "Discount"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return goal
}

// TestSessionPullDialogue drives a full inference through the public
// pull API: Propose, Answer, Result.
func TestSessionPullDialogue(t *testing.T) {
	s := travelSession(t, jim.WithStrategy("lookahead-maxmin"))
	goal := travelGoal(t, s)
	questions := 0
	for {
		i, ok := s.Propose()
		if !ok {
			break
		}
		label := jim.Negative
		if jim.Selects(goal, s.Relation().Tuple(i)) {
			label = jim.Positive
		}
		if _, err := s.Answer(i, label); err != nil {
			t.Fatal(err)
		}
		if questions++; questions > s.Relation().Len() {
			t.Fatal("session asked more questions than tuples")
		}
	}
	if !s.Done() {
		t.Fatal("session did not converge")
	}
	if got := s.Result(); !got.Equal(goal) {
		t.Errorf("inferred %v, want %v", got, goal)
	}
	if questions > 6 {
		t.Errorf("lookahead-maxmin needed %d questions on travel", questions)
	}
	p := s.Progress()
	if p.Informative != 0 || p.Explicit != questions {
		t.Errorf("progress = %+v", p)
	}
}

// TestSessionOptions exercises the functional options and their
// validation errors.
func TestSessionOptions(t *testing.T) {
	rel, err := jim.ReadCSV(strings.NewReader(sessionTestCSV))
	if err != nil {
		t.Fatal(err)
	}
	_, err = jim.NewSession(rel, jim.WithStrategy("bogus"))
	if jim.CodeOf(err) != jim.CodeUnknownStrategy {
		t.Errorf("unknown strategy: %v (code %q)", err, jim.CodeOf(err))
	}
	if !errors.Is(err, jim.ErrUnknownStrategy) {
		t.Errorf("errors.Is(err, ErrUnknownStrategy) = false for %v", err)
	}
	rel3, _ := jim.ReadCSV(strings.NewReader(sessionTestCSV))
	if _, err := jim.NewSession(rel3, jim.WithStrategy("")); jim.CodeOf(err) != jim.CodeBadInput {
		t.Errorf("empty strategy: %v", err)
	}
	rel4, _ := jim.ReadCSV(strings.NewReader(sessionTestCSV))
	s, err := jim.NewSession(rel4,
		jim.WithStrategy("random"),
		jim.WithSeed(7),
		jim.WithConflictPolicy(jim.SkipOnConflict),
		jim.WithRedeferLimit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy() != "random" {
		t.Errorf("strategy = %q", s.Strategy())
	}
}

// TestSessionErrorTaxonomy checks codes, sentinels, and HTTP mapping.
func TestSessionErrorTaxonomy(t *testing.T) {
	s := travelSession(t)
	_, err := s.Answer(99, jim.Positive)
	if jim.CodeOf(err) != jim.CodeOutOfRange || !errors.Is(err, jim.ErrOutOfRange) {
		t.Errorf("out of range: %v", err)
	}
	if _, err := s.Answer(0, jim.Unlabeled); jim.CodeOf(err) != jim.CodeBadInput {
		t.Errorf("non-explicit label: %v", err)
	}
	if _, err := s.Answer(11, jim.Positive); err != nil {
		t.Fatal(err)
	}
	_, err = s.Answer(11, jim.Negative)
	if !errors.Is(err, jim.ErrAlreadyLabeled) {
		t.Errorf("relabel: %v", err)
	}
	_, err = s.Answer(2, jim.Negative)
	if !errors.Is(err, jim.ErrInconsistent) {
		t.Errorf("inconsistent: %v", err)
	}
	var je *jim.Error
	if !errors.As(err, &je) || je.Code != jim.CodeInconsistent {
		t.Errorf("errors.As(*jim.Error) failed for %v", err)
	}
	// Status mapping of the wire contract.
	statuses := map[jim.ErrorCode]int{
		jim.CodeInconsistent:    http.StatusConflict,
		jim.CodeAlreadyLabeled:  http.StatusUnprocessableEntity,
		jim.CodeSchemaMismatch:  http.StatusConflict,
		jim.CodeUnknownStrategy: http.StatusBadRequest,
		jim.CodeSessionDone:     http.StatusConflict,
		jim.CodeOutOfRange:      http.StatusBadRequest,
		jim.CodeBadInput:        http.StatusBadRequest,
		jim.CodeNotFound:        http.StatusNotFound,
		jim.CodeTooManySessions: http.StatusTooManyRequests,
		jim.CodeBodyTooLarge:    http.StatusRequestEntityTooLarge,
		jim.CodeInternal:        http.StatusInternalServerError,
	}
	for code, want := range statuses {
		if got := code.HTTPStatus(); got != want {
			t.Errorf("%s -> %d, want %d", code, got, want)
		}
	}
	if jim.CodeOf(errors.New("plain")) != "" {
		t.Error("CodeOf(plain error) != \"\"")
	}
}

// TestParseRowsTuplesIndependent pins the aliasing contract of
// ParseRows: nothing the returned batch holds points into rows, so the
// rows may be views into a buffer the caller reuses. The rows here view
// one buffer, as a transport's frame does, and overwriting it after
// the parse changes no cell, parsed or appended.
func TestParseRowsTuplesIndependent(t *testing.T) {
	s := travelSession(t)
	want := [][]string{
		{"Lyon", "Nice", "AF", "Nice", "AF"},
		{"Oslo", "Rome", "SK", "Rome", "SK"},
		{"Kiev", "Riga", "PS", "Riga", "BT"},
	}
	buf := []byte(strings.Join(slices.Concat(want...), ""))
	rows := make([][]string, len(want))
	off := 0
	for r, row := range want {
		for _, cell := range row {
			rows[r] = append(rows[r], unsafe.String(&buf[off], len(cell)))
			off += len(cell)
		}
	}
	b, err := s.ParseRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	// check overwrites the buffer, then compares every cell as cell
	// reads it with want.
	check := func(what string, cell func(r, c int) jim.Value) {
		for i := range buf {
			buf[i]++
		}
		for r, row := range want {
			for c, w := range row {
				if got := relation.EncodeCell(cell(r, c)); got != w {
					t.Fatalf("after reusing the rows buffer, %s row %d column %d = %q, want %q", what, r, c, got, w)
				}
			}
		}
	}
	check("parsed", b.Cell)
	base := s.Relation().Len()
	if _, err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	check("appended", func(r, c int) jim.Value { return s.Relation().Cell(base+r, c) })
}

// TestSessionSkipAndAppend exercises skip routing and streaming
// arrivals through the facade, including the parse helpers.
func TestSessionSkipAndAppend(t *testing.T) {
	s := travelSession(t)
	i, ok := s.Propose()
	if !ok {
		t.Fatal("no proposal")
	}
	if err := s.Skip(i); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Propose()
	if !ok || j == i {
		t.Errorf("after skip Propose = (%d,%v), skipped %d", j, ok, i)
	}

	b, err := s.ParseRows([][]string{{"Lyon", "Nice", "AF", "Nice", "AF"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	if s.Relation().Len() != 13 {
		t.Errorf("after append len = %d", s.Relation().Len())
	}

	if _, err := s.ParseRows([][]string{{"too", "short"}}); jim.CodeOf(err) != jim.CodeSchemaMismatch {
		t.Errorf("short row: %v", err)
	}
	if _, err := s.ParseCSV("Wrong,Header\na,b\n"); !errors.Is(err, jim.ErrSchemaMismatch) {
		t.Errorf("wrong csv header: %v", err)
	}
	if _, err := s.ParseCSV("  "); jim.CodeOf(err) != jim.CodeBadInput {
		t.Errorf("empty csv: %v", err)
	}
	b, err = s.ParseCSV("From,To,Airline,City,Discount\nOslo,Rome,SK,Rome,SK\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	if s.Relation().Len() != 14 {
		t.Errorf("after csv append len = %d", s.Relation().Len())
	}
}

// TestSessionExplain checks Explain round-trips through the facade.
func TestSessionExplain(t *testing.T) {
	s := travelSession(t)
	if _, err := s.Answer(11, jim.Positive); err != nil {
		t.Fatal(err)
	}
	e, err := s.Explain(2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Label != jim.ImpliedPositive {
		t.Errorf("explain(2).Label = %v", e.Label)
	}
	if _, err := s.Explain(-1); !errors.Is(err, jim.ErrOutOfRange) {
		t.Errorf("explain out of range: %v", err)
	}
}

// TestSessionAppendAllocs pins the facade's batch route: ParseRows
// makes a constant number of allocations however many rows it parses,
// and a warm ParseRows + Append of a bulk-wire-sized batch (940×6,
// landing in existing signature classes) makes exactly as many as the
// engine's own route — relation.ParseRows, then State.AppendBatch on a
// twin session with the same history — at 94 rows and at 940. The
// parsed batch is adopted as it is: no per-tuple Value slab, no copy
// back into a batch. The engine route's count still carries amortized
// growth (the per-tuple arrays, the member array), so it is the twin,
// not a constant, that bounds the facade. The collector is paused
// while they are counted: a collection cycle's own allocations would
// land in one route's count and not the other's.
func TestSessionAppendAllocs(t *testing.T) {
	const baseRows, batchRows = 60, 940
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rel, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: baseRows + batchRows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, 0, batchRows)
	base := jim.NewRelation(rel.Schema())
	rel.Each(func(i int, tu jim.Tuple) {
		if i < baseRows {
			base.MustAppend(tu.Clone())
			return
		}
		row := make([]string, len(tu))
		for c, v := range tu {
			row[c] = relation.EncodeCell(v)
		}
		rows = append(rows, row)
	})
	for _, n := range []int{batchRows / 10, batchRows} {
		facade, err := jim.NewSession(base.Clone())
		if err != nil {
			t.Fatal(err)
		}
		engine, err := jim.NewSession(base.Clone())
		if err != nil {
			t.Fatal(err)
		}
		// The first (unmeasured) run of each registers the batch's new
		// signature classes; the measured runs land in existing ones.
		parse := testing.AllocsPerRun(20, func() {
			if _, err := facade.ParseRows(rows[:n]); err != nil {
				t.Fatal(err)
			}
		})
		got := testing.AllocsPerRun(20, func() {
			b, err := facade.ParseRows(rows[:n])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := facade.Append(b); err != nil {
				t.Fatal(err)
			}
		})
		want := testing.AllocsPerRun(20, func() {
			b, err := relation.ParseRows(rel.Schema(), facade.Typing(), rows[:n])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.State().AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows: parse %.0f allocations, parse + append %.0f, engine route %.0f", n, parse, got, want)
		if parse > 4 {
			t.Errorf("%d-row ParseRows made %.0f allocations, want <= 4 (the batch and its columns)", n, parse)
		}
		if got > want {
			t.Errorf("%d-row ParseRows + Append made %.0f allocations, the engine route %.0f", n, got, want)
		}
	}
}
