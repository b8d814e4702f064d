package main

import (
	"fmt"
	"strings"
	"time"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/strategy"
)

// replays is how many times each traced dialogue is replayed; every
// time is the minimum over the replays, so a replay the scheduler or
// the collector interrupted does not inflate a hidden layer.
const replays = 2

// timedPicker wraps the strategy's picker and accumulates pick time.
type timedPicker struct {
	inner jim.KPicker
	acc   time.Duration
	n     int
}

func (p *timedPicker) Name() string { return p.inner.Name() }

func (p *timedPicker) Pick(st *jim.State) (int, bool) {
	t0 := time.Now()
	i, ok := p.inner.Pick(st)
	p.acc += time.Since(t0)
	p.n++
	return i, ok
}

func (p *timedPicker) PickK(st *jim.State, k int) []int {
	t0 := time.Now()
	out := p.inner.PickK(st, k)
	p.acc += time.Since(t0)
	p.n++
	return out
}

// replayTimes are the hidden layers' times over the replayed dialogues.
type replayTimes struct {
	parse, newState samples // ms
	answer, append  samples // µs
	picks           samples // µs, per turn
	turns           int
	// turnPicks counts the picks made inside turns.
	turnPicks int
	// perTurn holds core and strategy time of each replayed turn,
	// keyed by the request id sid/seq of the client turn.
	perTurn map[string]turnTime
}

type turnTime struct{ core, pick int64 } // ns

// opTimes are one replay's times: create at index 0, then one entry
// per script step.
type opTimes struct {
	parse, newState time.Duration
	// core is the answer, append or proposal time outside the picker;
	// pick is the picker's; answer splits the answer out of a turn.
	core, pick, answer []time.Duration
	picks              []int
}

// replay re-runs a recorded dialogue through the relation, core and
// strategy public functions, timing each, and fails on the first
// proposal that differs from the one the server sent.
func replay(rec *record, rt *replayTimes) error {
	var best *opTimes
	for r := 0; r < replays; r++ {
		ot, err := replayOnce(rec)
		if err != nil {
			return err
		}
		if best == nil {
			best = ot
			continue
		}
		best.parse = min(best.parse, ot.parse)
		best.newState = min(best.newState, ot.newState)
		for k := range best.core {
			best.core[k] = min(best.core[k], ot.core[k])
			best.pick[k] = min(best.pick[k], ot.pick[k])
			best.answer[k] = min(best.answer[k], ot.answer[k])
		}
	}
	rt.parse.addDur(best.parse, time.Millisecond)
	rt.newState.addDur(best.newState, time.Millisecond)
	for k, seq := range rec.seqs {
		switch rec.inst.script[k].kind {
		case stepTurn:
			rt.answer.addDur(best.answer[k], time.Microsecond)
			rt.picks.addDur(best.pick[k], time.Microsecond)
			rt.turns++
			rt.turnPicks += best.picks[k]
			rt.perTurn[fmt.Sprintf("%s/%d", rec.sid, seq)] = turnTime{core: int64(best.core[k]), pick: int64(best.pick[k])}
		case stepAppend:
			rt.append.addDur(best.core[k], time.Microsecond)
		}
	}
	return nil
}

func replayOnce(rec *record) (*opTimes, error) {
	inst := rec.inst
	ot := &opTimes{}
	t0 := time.Now()
	rel, typing, err := relation.ReadCSVTyped(strings.NewReader(inst.baseCSV), relation.CSVOptions{})
	if err != nil {
		return nil, err
	}
	ot.parse = time.Since(t0)
	inner, err := strategy.ByName(jim.DefaultStrategy, inst.seed)
	if err != nil {
		return nil, err
	}
	tp := &timedPicker{inner: inner}
	t0 = time.Now()
	sess, err := jim.NewSession(rel,
		jim.WithPicker(tp),
		jim.WithSeed(inst.seed),
		jim.WithTyping(typing),
		jim.WithRedeferLimit(-1))
	if err != nil {
		return nil, err
	}
	ot.newState = time.Since(t0)
	for k := range rec.seqs {
		st := inst.script[k]
		var answer time.Duration
		tp.acc, tp.n = 0, 0
		got := -1
		t := time.Now()
		switch st.kind {
		case stepTurn:
			l := jim.Negative
			if st.label == "+" {
				l = jim.Positive
			}
			if _, err := sess.Answer(st.index, l); err != nil {
				return nil, err
			}
			answer = time.Since(t)
			fallthrough
		case stepPropose:
			if i, ok := sess.Propose(); ok {
				got = i
			}
		case stepAppend:
			rows, err := inst.rows(st.batch)
			if err != nil {
				return nil, err
			}
			tuples, err := sess.ParseRows(rows)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			if _, err := sess.Append(tuples); err != nil {
				return nil, err
			}
			got = rec.props[k]
		}
		d := time.Since(t)
		ot.core = append(ot.core, d-tp.acc)
		ot.pick = append(ot.pick, tp.acc)
		ot.answer = append(ot.answer, answer)
		ot.picks = append(ot.picks, tp.n)
		if got != rec.props[k] {
			return nil, fmt.Errorf("replay of %s step %d proposed %d, server sent %d", rec.sid, k, got, rec.props[k])
		}
	}
	return ot, nil
}
