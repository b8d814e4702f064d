package session_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/strategy"
	"repro/internal/values"
	"repro/internal/workload"
)

func travelStateWithLabels(t *testing.T) *core.State {
	t.Helper()
	st, err := core.NewState(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(2, core.Positive); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(7, core.Negative); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st := travelStateWithLabels(t)
	meta := session.Meta{
		Strategy:  "lookahead-maxmin",
		CreatedAt: time.Date(2014, 9, 1, 10, 0, 0, 0, time.UTC),
		Note:      "demo session",
	}
	var buf bytes.Buffer
	if err := session.Save(&buf, st, meta); err != nil {
		t.Fatal(err)
	}
	st2, meta2, err := session.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Errorf("meta = %+v, want %+v", meta2, meta)
	}
	if st2.Relation().Len() != st.Relation().Len() {
		t.Fatalf("tuple count changed: %d vs %d", st2.Relation().Len(), st.Relation().Len())
	}
	// Full state equivalence: same labels, same hypothesis.
	for i := 0; i < st.Relation().Len(); i++ {
		if st2.Label(i) != st.Label(i) {
			t.Errorf("tuple %d label %v, want %v", i, st2.Label(i), st.Label(i))
		}
		if !st2.Sig(i).Equal(st.Sig(i)) {
			t.Errorf("tuple %d signature changed", i)
		}
	}
	if !st2.MP().Equal(st.MP()) {
		t.Errorf("M_P = %v, want %v", st2.MP(), st.MP())
	}
	if len(st2.Negatives()) != len(st.Negatives()) {
		t.Errorf("negatives = %v, want %v", st2.Negatives(), st.Negatives())
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResumeSessionContinuesToGoal(t *testing.T) {
	st := travelStateWithLabels(t)
	var buf bytes.Buffer
	if err := session.Save(&buf, st, session.Meta{}); err != nil {
		t.Fatal(err)
	}
	st2, _, err := session.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st2, strategy.LookaheadMaxMin(), oracle.Goal(workload.TravelQ2()))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("resumed session did not converge")
	}
	if !core.InstanceEquivalent(st2.Relation(), res.Query, workload.TravelQ2()) {
		t.Errorf("resumed session inferred %v", res.Query)
	}
}

func TestTypePreservation(t *testing.T) {
	// A string "1" and an int 1 must stay distinct across the round
	// trip (they are unequal under SQL semantics, so the signature
	// depends on it).
	rel := relation.MustBuild(relation.MustSchema("a", "b"),
		[]any{"x", 1},
	)
	// Force a string cell that looks numeric.
	rel2 := relation.New(rel.Schema())
	rel2.MustAppend(relation.Tuple{values.Str("1"), values.Int(1)})
	st, err := core.NewState(rel2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sig(0).IsBottom() {
		t.Fatalf("precondition: string 1 != int 1, sig = %v", st.Sig(0))
	}
	var buf bytes.Buffer
	if err := session.Save(&buf, st, session.Meta{}); err != nil {
		t.Fatal(err)
	}
	st2, _, err := session.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Sig(0).IsBottom() {
		t.Errorf("round trip merged string \"1\" and int 1: sig = %v", st2.Sig(0))
	}

	// Every cell kind, in the shapes a tagged round trip can lose, comes
	// back exact, in creation-time rows and in appended ones alike.
	pool := []values.Value{
		values.Null(), values.Bool(true), values.Bool(false), values.Int(math.MaxInt64),
		values.Float(math.NaN()), values.Float(math.Copysign(0, -1)), values.Str(""),
		values.Str("42"), values.Str("-0"), values.Str("2.5"), values.Str("NaN"), values.Str("true"),
	}
	var rows []relation.Tuple
	for k := range pool {
		rows = append(rows, relation.Tuple{pool[k], pool[(k+5)%len(pool)], pool[(k+7)%len(pool)]})
	}
	rel3 := relation.New(relation.MustSchema("a", "b", "c"))
	rel3.MustAppend(rows[:len(rows)/2]...)
	st3, err := core.NewState(rel3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Append(rows[len(rows)/2:]); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := session.Save(&buf, st3, session.Meta{}); err != nil {
		t.Fatal(err)
	}
	st4, _, err := session.LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st4.BaseLen() != len(rows)/2 || st4.Relation().Len() != len(rows) {
		t.Fatalf("reload has %d tuples, %d at creation; want %d, %d", st4.Relation().Len(), st4.BaseLen(), len(rows), len(rows)/2)
	}
	for i, tu := range rows {
		for c, v := range tu {
			if got := st4.Relation().Cell(i, c); !exactCell(got, v) {
				t.Errorf("tuple %d column %d reloads as %#v, want %#v", i, c, got, v)
			}
		}
	}
}

// exactCell is Value.Identical made exact for floats: same kind and
// payload word, and for strings the same text, so NaN matches NaN and
// −0 does not match +0.
func exactCell(a, b values.Value) bool {
	if a.Kind() == values.KindString {
		return a.Identical(b)
	}
	return a.Kind() == b.Kind() && a.Word() == b.Word()
}

func TestLoadRejectsCorruptFiles(t *testing.T) {
	cases := map[string]string{
		"not json":        "not json at all",
		"bad version":     `{"version": 99, "schema":["a"], "rows":[], "labels":[]}`,
		"bad schema":      `{"version": 1, "schema":["a","a"], "rows":[], "labels":[]}`,
		"ragged row":      `{"version": 1, "schema":["a","b"], "rows":[["i:1"]], "labels":[]}`,
		"bad tag":         `{"version": 1, "schema":["a"], "rows":[["zz"]], "labels":[]}`,
		"bad label":       `{"version": 1, "schema":["a"], "rows":[["i:1"]], "labels":[{"index":0,"label":"?"}]}`,
		"label range":     `{"version": 1, "schema":["a"], "rows":[["i:1"]], "labels":[{"index":5,"label":"+"}]}`,
		"duplicate label": `{"version": 1, "schema":["a"], "rows":[["i:1"]], "labels":[{"index":0,"label":"+"},{"index":0,"label":"+"}]}`,
	}
	for name, body := range cases {
		if _, _, err := session.Load(strings.NewReader(body)); err == nil {
			t.Errorf("%s: corrupt session accepted", name)
		}
	}
}

func TestLoadRejectsInconsistentLabels(t *testing.T) {
	// Two contradictory labels on identical-signature tuples.
	st, err := core.NewState(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := session.Save(&buf, st, session.Meta{}); err != nil {
		t.Fatal(err)
	}
	var f session.File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	// Tuples (3) and (4) share a signature: labeling them oppositely
	// is inconsistent and must be rejected on load.
	f.Labels = []session.LabelEntry{
		{Index: 2, Label: "+"},
		{Index: 3, Label: "-"},
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := session.Load(bytes.NewReader(data)); err == nil {
		t.Error("inconsistent session accepted")
	}
}

// TestGrownSessionRoundTripV2 saves a session whose instance grew
// after creation (appended rows, labels on both old and new tuples)
// and requires the reload to reproduce the full state including the
// base/appended split.
func TestGrownSessionRoundTripV2(t *testing.T) {
	rel := relation.MustBuild(relation.MustSchema("a", "b", "c", "d"),
		[]any{1, 1, 2, 2},
		[]any{3, 4, 5, 6},
	)
	st, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(0, core.Positive); err != nil {
		t.Fatal(err)
	}
	// Grow mid-session, then label an arrival explicitly.
	if _, err := st.Append([]relation.Tuple{
		{values.Int(7), values.Int(7), values.Int(8), values.Int(9)}, // a=b only: informative
		{values.Int(9), values.Int(9), values.Int(9), values.Int(9)}, // implied + on arrival
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(2, core.Negative); err != nil {
		t.Fatal(err)
	}
	if st.BaseLen() != 2 || st.Appended() != 2 {
		t.Fatalf("precondition: base/appended = %d/%d", st.BaseLen(), st.Appended())
	}

	var buf bytes.Buffer
	if err := session.Save(&buf, st, session.Meta{Strategy: "random"}); err != nil {
		t.Fatal(err)
	}
	var f session.File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Version != session.FormatVersion || f.BaseRows != 2 {
		t.Fatalf("file version/base_rows = %d/%d, want %d/2", f.Version, f.BaseRows, session.FormatVersion)
	}

	st2, _, err := session.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st2.BaseLen() != 2 || st2.Appended() != 2 {
		t.Fatalf("reload base/appended = %d/%d, want 2/2", st2.BaseLen(), st2.Appended())
	}
	if st2.Relation().Len() != st.Relation().Len() {
		t.Fatalf("reload has %d tuples, want %d", st2.Relation().Len(), st.Relation().Len())
	}
	for i := 0; i < st.Relation().Len(); i++ {
		if st2.Label(i) != st.Label(i) {
			t.Errorf("tuple %d label %v, want %v", i, st2.Label(i), st.Label(i))
		}
	}
	if !st2.MP().Equal(st.MP()) {
		t.Errorf("M_P = %v, want %v", st2.MP(), st.MP())
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestLoadAcceptsV1Files pins backward compatibility: a version-1 file
// (no base_rows) loads as a session whose whole instance was present
// at creation.
func TestLoadAcceptsV1Files(t *testing.T) {
	v1 := `{
		"version": 1,
		"meta": {"strategy": "lookahead-maxmin"},
		"schema": ["a", "b"],
		"rows": [["i:1", "i:1"], ["i:2", "i:3"]],
		"labels": [{"index": 0, "label": "+"}]
	}`
	st, meta, err := session.Load(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 file rejected: %v", err)
	}
	if meta.Strategy != "lookahead-maxmin" {
		t.Errorf("meta = %+v", meta)
	}
	if st.BaseLen() != 2 || st.Appended() != 0 {
		t.Errorf("v1 base/appended = %d/%d, want 2/0", st.BaseLen(), st.Appended())
	}
	if st.Label(0) != core.Positive {
		t.Errorf("label 0 = %v, want +", st.Label(0))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestLoadRejectsBadBaseRows extends the corrupt-file cases for v2.
func TestLoadRejectsBadBaseRows(t *testing.T) {
	for name, body := range map[string]string{
		"base beyond rows": `{"version": 2, "schema":["a"], "base_rows": 5, "rows":[["i:1"]], "labels":[]}`,
		"negative base":    `{"version": 2, "schema":["a"], "base_rows": -1, "rows":[["i:1"]], "labels":[]}`,
	} {
		if _, _, err := session.Load(strings.NewReader(body)); err == nil {
			t.Errorf("%s: corrupt session accepted", name)
		}
	}
}

// TestManyChunkSessionRoundTrip streams a synthetic instance into a
// session in batches of every shape — single rows, small batches and
// large ones, copied (Append) and handed over (AppendBatch) — so its
// relation holds many chunks, labels by the goal between batches, and
// checks the state's invariants after every append. Save and Load must
// then reproduce every tuple, label and the hypothesis.
func TestManyChunkSessionRoundTrip(t *testing.T) {
	full, goal, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: 6000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const base = 40
	rel := relation.New(full.Schema())
	for i := 0; i < base; i++ {
		rel.MustAppend(full.Tuple(i))
	}
	st, err := core.NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for next, k := base, 0; next < full.Len(); k++ {
		n := min([]int{1, 1, 3, 40, 300, 1100}[r.Intn(6)], full.Len()-next)
		batch := make([]relation.Tuple, n)
		for i := range batch {
			batch[i] = full.Tuple(next + i)
		}
		next += n
		if k%2 == 0 {
			_, err = st.Append(batch)
		} else {
			var b *relation.Batch
			if b, err = relation.BatchOf(full.Schema().Len(), batch); err == nil {
				_, err = st.AppendBatch(b)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("after append %d (%d rows): %v", k, n, err)
		}
		if k%5 == 0 && !st.Done() {
			i := st.InformativeIndices()[0]
			l := core.Negative
			if core.Selects(goal, st.Relation().Tuple(i)) {
				l = core.Positive
			}
			if _, err := st.Apply(i, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	chunks := 0
	st.Relation().EachBatch(func(int, *relation.Batch) { chunks++ })
	if chunks < 5 {
		t.Fatalf("precondition: the instance is stored in %d chunks", chunks)
	}

	var buf bytes.Buffer
	if err := session.Save(&buf, st, session.Meta{Strategy: "random"}); err != nil {
		t.Fatal(err)
	}
	st2, _, err := session.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st2.BaseLen() != base || st2.Relation().Len() != full.Len() {
		t.Fatalf("reload has %d tuples, %d at creation; want %d, %d", st2.Relation().Len(), st2.BaseLen(), full.Len(), base)
	}
	for i := 0; i < full.Len(); i++ {
		if !st2.Relation().Tuple(i).Identical(st.Relation().Tuple(i)) {
			t.Fatalf("tuple %d reloads as %v, want %v", i, st2.Relation().Tuple(i), st.Relation().Tuple(i))
		}
		if st2.Label(i) != st.Label(i) {
			t.Fatalf("tuple %d reloads labeled %v, want %v", i, st2.Label(i), st.Label(i))
		}
	}
	if !st2.MP().Equal(st.MP()) {
		t.Errorf("M_P = %v, want %v", st2.MP(), st.MP())
	}
}
