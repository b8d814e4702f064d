package jim_test

import (
	"bytes"
	"strings"
	"testing"

	jim "repro"
	"repro/internal/partition"
	"repro/internal/relalg"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// selects reports whether predicate q selects t: every attribute pair
// it equates holds equal values in t.
func selects(q partition.P, t relation.Tuple) bool {
	for _, at := range q.Atoms() {
		if !t[at[0]].Equal(t[at[1]]) {
			return false
		}
	}
	return true
}

// TestResultOracleWithoutCore checks converged dialogues with an
// evaluator that shares no code with the inference engine. Each
// session is created from the first half of an instance; the rest
// streams in as raw rows — relation.EncodeCell per cell, through a wire
// append frame, then Session.ParseRows — between answers from the goal
// oracle. At convergence the predicate is parsed with partition.Parse
// and evaluated with relalg.Select over the generator's own relation:
// it must select every tuple labeled positive, none labeled negative,
// and exactly the tuples the goal selects. The session's relation must
// also hold exactly the generator's values, so the cell parse path is
// pinned end to end.
func TestResultOracleWithoutCore(t *testing.T) {
	for _, family := range []string{"travel", "synthetic", "zipf"} {
		full, goal, err := workload.Instance(family, workload.InstanceConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range jim.Strategies() {
			t.Run(family+"/"+name, func(t *testing.T) {
				predicate, positive := converge(t, full, goal, name)
				checkResult(t, full, goal, predicate, positive)
			})
		}
	}
}

// oracleBatches is how many append frames carry the second half.
const oracleBatches = 3

// converge drives a session over full with the goal oracle answering,
// appending the next arrival batch after every two answers and
// whenever the session converges early. It returns the converged
// predicate and the labels given (true for positive), by tuple index.
func converge(t *testing.T, full *relation.Relation, goal partition.P, strategy string) (string, map[int]bool) {
	t.Helper()
	n := full.Len()
	base := (n + 1) / 2
	baseRel := relation.New(full.Schema())
	for i := 0; i < base; i++ {
		baseRel.MustAppend(full.Tuple(i))
	}
	var csv strings.Builder
	if err := relation.WriteCSV(&csv, baseRel); err != nil {
		t.Fatal(err)
	}
	rel, typing, err := relation.ReadCSVTyped(strings.NewReader(csv.String()), relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := jim.NewSession(rel, jim.WithStrategy(strategy), jim.WithSeed(3), jim.WithTyping(typing))
	if err != nil {
		t.Fatal(err)
	}

	sent := 0
	appendBatch := func() {
		lo, hi := base+(n-base)*sent/oracleBatches, base+(n-base)*(sent+1)/oracleBatches
		sent++
		rows := make([][]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			row := make([]string, full.Schema().Len())
			for c, v := range full.Tuple(i) {
				row[c] = relation.EncodeCell(v)
			}
			rows = append(rows, row)
		}
		b, err := sess.ParseRows(overWire(t, rows))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Append(b); err != nil {
			t.Fatal(err)
		}
	}

	positive := make(map[int]bool)
	for answers := 0; ; {
		p, ok := sess.Propose()
		if !ok {
			if sent == oracleBatches {
				break
			}
			appendBatch()
			continue
		}
		pos := selects(goal, full.Tuple(p))
		label := jim.Negative
		if pos {
			label = jim.Positive
		}
		if _, err := sess.Answer(p, label); err != nil {
			t.Fatalf("answer %d %v: %v", p, label, err)
		}
		positive[p] = pos
		if answers++; answers%2 == 0 && sent < oracleBatches {
			appendBatch()
		}
		if answers > 4*n {
			t.Fatalf("no convergence after %d answers", answers)
		}
	}
	if !sess.Done() {
		t.Fatal("no proposal left, but the session has not converged")
	}
	got := sess.Relation()
	if got.Len() != n {
		t.Fatalf("session holds %d tuples, instance has %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		for c, v := range full.Tuple(i) {
			if w := got.Tuple(i)[c]; !w.Identical(v) {
				t.Fatalf("tuple %d column %d parsed as %#v, generated %#v", i, c, w, v)
			}
		}
	}
	return sess.Result().String(), positive
}

// overWire sends rows through a wire append frame and returns what the
// server side decodes.
func overWire(t *testing.T, rows [][]string) [][]string {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, 0)
	if err := w.WriteAppend("s0001", rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var req wire.Request
	if err := wire.NewReader(&buf, 0).ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	return req.Rows
}

// checkResult evaluates the converged predicate over full with relalg
// alone.
func checkResult(t *testing.T, full *relation.Relation, goal partition.P, predicate string, positive map[int]bool) {
	t.Helper()
	q, err := partition.Parse(predicate)
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != full.Schema().Len() {
		t.Fatalf("predicate %s has %d attributes, instance has %d", predicate, q.N(), full.Schema().Len())
	}
	for i, pos := range positive {
		if selects(q, full.Tuple(i)) != pos {
			t.Errorf("predicate %s disagrees with the label (positive: %v) of tuple %d", predicate, pos, i)
		}
	}
	sel := relalg.Select(full, func(tu relation.Tuple) bool { return selects(q, tu) })
	want := relalg.Select(full, func(tu relation.Tuple) bool { return selects(goal, tu) })
	if sel.Len() != want.Len() {
		t.Fatalf("predicate %s selects %d tuples, goal %s selects %d", predicate, sel.Len(), goal, want.Len())
	}
	for i := 0; i < sel.Len(); i++ {
		if !sel.Tuple(i).Identical(want.Tuple(i)) {
			t.Fatalf("predicate %s and goal %s select different tuples", predicate, goal)
		}
	}
}
