package main

import (
	"encoding/csv"
	"fmt"
	"strings"

	jim "repro"
	"repro/internal/partition"
	"repro/internal/relalg"
	"repro/internal/relation"
	gen "repro/internal/workload"
)

// poolSpec says how a workload's instances are generated and how each
// dialogue streams the part of its instance it was not created from.
type poolSpec struct {
	// families are the workload.Instance generators, rotated by seed.
	families []string
	// tuples is the instance size; 0 keeps each generator's default.
	tuples int
	// size is how many distinct instances the pool holds; sessions
	// cycle through them.
	size int
	// baseNum/baseDen is the share of the instance a session is created
	// from; the rest arrives in batches appends.
	baseNum, baseDen int
	batches          int
	// appendEvery sends the next batch after every this many turns.
	appendEvery int
}

// instance is one generated input with everything the benchmark needs
// to drive and check a dialogue over it. It keeps only the encoded
// payloads: the clients share a process with the servers, and a pool of
// decoded relations would make every garbage collection of the server
// mark the benchmark's own inputs.
type instance struct {
	family string
	tuples int
	// seed drives the generator and is the strategy seed sent with
	// create.
	seed    int64
	goal    partition.P
	baseCSV string
	// batches are the arrival rows of each append, as CSV records.
	batches []string
	// script is the dialogue an uninterrupted in-process jim.Session
	// produced with the goal oracle answering: the server must send
	// exactly these proposals.
	script []step
	turns  int
	// result is the control session's final predicate.
	result string
}

type stepKind uint8

const (
	// stepPropose asks for a proposal without answering (after create,
	// and after an append that found the session converged).
	stepPropose stepKind = iota
	// stepTurn answers the outstanding proposal and gets the next one.
	stepTurn
	// stepAppend streams the next arrival batch.
	stepAppend
)

// step is one client operation of a dialogue and the reply it must get.
type step struct {
	kind  stepKind
	index int    // stepTurn: the tuple answered
	label string // stepTurn: "+" or "-"
	batch int    // stepAppend: which batch
	// prop is the proposal the reply must carry (-1 = none); done is
	// the reply's convergence flag. Neither applies to stepAppend.
	prop int
	done bool
}

// buildPool generates spec.size instances from seed.
func buildPool(spec poolSpec, seed int64) ([]*instance, error) {
	pool := make([]*instance, spec.size)
	for k := range pool {
		family := spec.families[int(uint64(seed)+uint64(k))%len(spec.families)]
		inst, err := newInstance(spec, family, seed*7919+int64(k))
		if err != nil {
			return nil, fmt.Errorf("instance %d (%s): %w", k, family, err)
		}
		pool[k] = inst
	}
	return pool, nil
}

func newInstance(spec poolSpec, family string, seed int64) (*instance, error) {
	inst := &instance{family: family, tuples: spec.tuples, seed: seed}
	full, goal, err := inst.generate()
	if err != nil {
		return nil, err
	}
	inst.goal = goal
	n := full.Len()
	base := (n*spec.baseNum + spec.baseDen - 1) / spec.baseDen
	baseRel := relation.New(full.Schema())
	for i := 0; i < base; i++ {
		baseRel.MustAppend(full.Tuple(i))
	}
	var b strings.Builder
	if err := relation.WriteCSV(&b, baseRel); err != nil {
		return nil, err
	}
	inst.baseCSV = b.String()
	rest := n - base
	for k := 0; k < spec.batches && rest > 0; k++ {
		lo := base + rest*k/spec.batches
		hi := base + rest*(k+1)/spec.batches
		if lo == hi {
			continue
		}
		b.Reset()
		w := csv.NewWriter(&b)
		for i := lo; i < hi; i++ {
			t := full.Tuple(i)
			row := make([]string, len(t))
			for c, v := range t {
				row[c] = relation.EncodeCell(v)
			}
			w.Write(row)
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return nil, err
		}
		inst.batches = append(inst.batches, b.String())
	}
	if err := inst.buildScript(full, spec.appendEvery); err != nil {
		return nil, err
	}
	return inst, nil
}

// generate builds the whole instance and its goal: the creation rows,
// then the arrival rows in the order they are appended — the server's
// tuple indices.
func (inst *instance) generate() (*relation.Relation, partition.P, error) {
	return gen.Instance(inst.family, gen.InstanceConfig{Tuples: inst.tuples, Seed: inst.seed})
}

// rows decodes arrival batch k.
func (inst *instance) rows(k int) ([][]string, error) {
	return csv.NewReader(strings.NewReader(inst.batches[k])).ReadAll()
}

// buildScript runs the dialogue policy against a control session,
// opened exactly as the server opens one for a create of inst.baseCSV:
// the goal oracle answers each proposal, the next arrival batch is
// appended after every appendEvery turns, and a converged session
// with batches left takes the next batch at once.
func (inst *instance) buildScript(full *relation.Relation, appendEvery int) error {
	rel, typing, err := relation.ReadCSVTyped(strings.NewReader(inst.baseCSV), relation.CSVOptions{})
	if err != nil {
		return err
	}
	sess, err := jim.NewSession(rel,
		jim.WithStrategy(jim.DefaultStrategy),
		jim.WithSeed(inst.seed),
		jim.WithTyping(typing),
		jim.WithRedeferLimit(-1))
	if err != nil {
		return err
	}
	propose := func(kind stepKind, index int, label string) {
		i, ok := sess.Propose()
		if !ok {
			i = -1
		}
		inst.script = append(inst.script, step{kind: kind, index: index, label: label, prop: i, done: sess.Done()})
	}
	appendBatch := func(b int) error {
		rows, err := inst.rows(b)
		if err != nil {
			return err
		}
		tuples, err := sess.ParseRows(rows)
		if err != nil {
			return err
		}
		if _, err := sess.Append(tuples); err != nil {
			return err
		}
		inst.script = append(inst.script, step{kind: stepAppend, batch: b, prop: -1})
		return nil
	}
	propose(stepPropose, 0, "")
	sent := 0
	for {
		p := inst.lastProposal()
		if p < 0 {
			if inst.script[len(inst.script)-1].kind != stepAppend {
				if sent == len(inst.batches) {
					break
				}
				if err := appendBatch(sent); err != nil {
					return err
				}
				sent++
			}
			propose(stepPropose, 0, "")
			continue
		}
		label := "-"
		if selects(inst.goal, full.Tuple(p)) {
			label = "+"
		}
		l := jim.Negative
		if label == "+" {
			l = jim.Positive
		}
		if _, err := sess.Answer(p, l); err != nil {
			return err
		}
		inst.turns++
		propose(stepTurn, p, label)
		if inst.turns%appendEvery == 0 && sent < len(inst.batches) {
			if err := appendBatch(sent); err != nil {
				return err
			}
			sent++
		}
	}
	if !sess.Done() {
		return fmt.Errorf("control session ended without converging")
	}
	inst.result = sess.Result().String()
	return nil
}

// lastProposal is the outstanding proposal at the end of the script.
func (inst *instance) lastProposal() int {
	p, _ := inst.outstanding(len(inst.script))
	return p
}

// outstanding is the proposal and convergence flag the last reply
// before step pos carried.
func (inst *instance) outstanding(pos int) (prop int, done bool) {
	for i := pos - 1; i >= 0; i-- {
		if st := inst.script[i]; st.kind != stepAppend {
			return st.prop, st.done
		}
	}
	return -1, false
}

// halfway is the number of script steps that label the dialogue half
// way: everything up to and including turn ceil(turns/2).
func (inst *instance) halfway() int {
	want := (inst.turns + 1) / 2
	seen := 0
	for i, st := range inst.script {
		if st.kind == stepTurn {
			seen++
			if seen == want {
				return i + 1
			}
		}
	}
	return 1
}

// selects reports whether the predicate selects t: every attribute
// pair it equates holds equal values in t.
func selects(q partition.P, t relation.Tuple) bool {
	for _, at := range q.Atoms() {
		if !t[at[0]].Equal(t[at[1]]) {
			return false
		}
	}
	return true
}

// checkResult is the output check of a converged session, made without
// the inference engine: the predicate the server returned is parsed
// and evaluated with relalg.Select over the whole instance. It must
// select every tuple the oracle labeled positive, none it labeled
// negative, and exactly what the goal selects.
func (inst *instance) checkResult(predicate string, done bool) error {
	if !done {
		return fmt.Errorf("result: session not converged")
	}
	full, _, err := inst.generate()
	if err != nil {
		return err
	}
	q, err := partition.Parse(predicate)
	if err != nil {
		return fmt.Errorf("result: %v", err)
	}
	if q.N() != full.Schema().Len() {
		return fmt.Errorf("result: predicate %s has %d attributes, instance has %d", predicate, q.N(), full.Schema().Len())
	}
	sel := relalg.Select(full, func(t relation.Tuple) bool { return selects(q, t) })
	chosen := make(map[string]bool, sel.Len())
	for i := 0; i < sel.Len(); i++ {
		chosen[sel.Tuple(i).Key()] = true
	}
	for _, st := range inst.script {
		if st.kind != stepTurn {
			continue
		}
		if got := chosen[full.Tuple(st.index).Key()]; got != (st.label == "+") {
			return fmt.Errorf("result: predicate %s disagrees with label %s of tuple %d", predicate, st.label, st.index)
		}
	}
	goalSel := relalg.Select(full, func(t relation.Tuple) bool { return selects(inst.goal, t) })
	if sel.Len() != goalSel.Len() {
		return fmt.Errorf("result: predicate %s selects %d tuples, goal %s selects %d", predicate, sel.Len(), inst.goal, goalSel.Len())
	}
	for i := 0; i < sel.Len(); i++ {
		if !sel.Tuple(i).Identical(goalSel.Tuple(i)) {
			return fmt.Errorf("result: predicate %s and goal %s select different tuples", predicate, inst.goal)
		}
	}
	return nil
}
