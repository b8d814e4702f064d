package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	jim "repro"
	"repro/internal/wire"
)

// endpoint is one client connection to a server, over either transport.
// propose and turn return the proposed tuple index (-1 for none) and
// the convergence flag.
type endpoint interface {
	create(csv string, seed int64) (string, error)
	propose(id string) (int, bool, error)
	// turn answers index and asks for the next proposal: one /step
	// round trip, one wire step frame, or with classic set a /label
	// followed by a /next.
	turn(id string, index int, label string, classic bool) (int, bool, error)
	appendRows(id string, rows [][]string) error
	result(id string) (predicate string, done bool, err error)
	del(id string) error
	close()
}

// httpEndpoint speaks the /v1 JSON API over one keep-alive connection.
type httpEndpoint struct {
	base   string
	client *http.Client
	body   bytes.Buffer
}

func newHTTPEndpoint(addr string) *httpEndpoint {
	return &httpEndpoint{
		base: "http://" + addr + "/v1",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

func (e *httpEndpoint) close() { e.client.CloseIdleConnections() }

// do sends one request and decodes a 2xx reply into out (nil: discard).
func (e *httpEndpoint) do(method, path string, in, out any) error {
	var rd io.Reader
	if in != nil {
		e.body.Reset()
		if err := json.NewEncoder(&e.body).Encode(in); err != nil {
			return err
		}
		rd = &e.body
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// proposal is the part of a /step or /next reply the client reads.
type proposal struct {
	Done  bool `json:"done"`
	Tuple *struct {
		Index int `json:"index"`
	} `json:"tuple"`
}

func (p *proposal) index() int {
	if p.Tuple == nil {
		return -1
	}
	return p.Tuple.Index
}

func (e *httpEndpoint) create(csv string, seed int64) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	err := e.do(http.MethodPost, "/sessions", map[string]any{"csv": csv, "strategy": jim.DefaultStrategy, "seed": seed}, &out)
	return out.ID, err
}

func (e *httpEndpoint) propose(id string) (int, bool, error) {
	var p proposal
	err := e.do(http.MethodPost, "/sessions/"+id+"/step", struct{}{}, &p)
	return p.index(), p.Done, err
}

type labelBody struct {
	Index int    `json:"index"`
	Label string `json:"label"`
}

func (e *httpEndpoint) turn(id string, index int, label string, classic bool) (int, bool, error) {
	var p proposal
	if classic {
		if err := e.do(http.MethodPost, "/sessions/"+id+"/label", labelBody{index, label}, nil); err != nil {
			return -1, false, err
		}
		err := e.do(http.MethodGet, "/sessions/"+id+"/next", nil, &p)
		return p.index(), p.Done, err
	}
	err := e.do(http.MethodPost, "/sessions/"+id+"/step", labelBody{index, label}, &p)
	return p.index(), p.Done, err
}

func (e *httpEndpoint) appendRows(id string, rows [][]string) error {
	return e.do(http.MethodPost, "/sessions/"+id+"/tuples", map[string]any{"rows": rows}, nil)
}

func (e *httpEndpoint) result(id string) (string, bool, error) {
	var out struct {
		Done      bool   `json:"done"`
		Predicate string `json:"predicate"`
	}
	err := e.do(http.MethodGet, "/sessions/"+id+"/result", nil, &out)
	return out.Predicate, out.Done, err
}

func (e *httpEndpoint) del(id string) error {
	return e.do(http.MethodDelete, "/sessions/"+id, nil, nil)
}

// wireEndpoint speaks the binary wire protocol over one connection.
type wireEndpoint struct {
	c       *wire.Client
	answers []wire.Answer
}

func dialWire(addr string) (*wireEndpoint, error) {
	c, err := wire.Dial(addr, 0)
	if err != nil {
		return nil, err
	}
	return &wireEndpoint{c: c, answers: make([]wire.Answer, 1)}, nil
}

func (e *wireEndpoint) close() { e.c.Close() }

func (e *wireEndpoint) create(csv string, seed int64) (string, error) {
	return e.c.Create(csv, jim.DefaultStrategy, seed)
}

func stepReply(res *wire.StepResult, err error) (int, bool, error) {
	if err != nil {
		return -1, false, err
	}
	if len(res.Proposals) == 0 {
		return -1, res.Done, nil
	}
	return res.Proposals[0], res.Done, nil
}

func (e *wireEndpoint) propose(id string) (int, bool, error) {
	return stepReply(e.c.Step(id, nil, 1))
}

func (e *wireEndpoint) turn(id string, index int, label string, _ bool) (int, bool, error) {
	l := wire.Negative
	if label == "+" {
		l = wire.Positive
	}
	e.answers[0] = wire.Answer{Index: index, Label: l}
	return stepReply(e.c.Step(id, e.answers, 1))
}

func (e *wireEndpoint) appendRows(id string, rows [][]string) error {
	_, err := e.c.Append(id, rows)
	return err
}

func (e *wireEndpoint) result(id string) (string, bool, error) {
	r, err := e.c.Result(id)
	return r.Predicate, r.Done, err
}

func (e *wireEndpoint) del(id string) error { return e.c.Delete(id) }

// window is one fixed slice of a measured phase's time. Metrics are
// computed per window and reported as the median over windows, so a
// burst of machine noise moves one window, not the result.
type window struct {
	create, turn, appendLat samples // ms
	turns                   int
	dur                     time.Duration
}

func (w *window) merge(o *window) {
	w.create = append(w.create, o.create...)
	w.turn = append(w.turn, o.turn...)
	w.appendLat = append(w.appendLat, o.appendLat...)
	w.turns += o.turns
}

// tally is one client's share of a run's measurements.
type tally struct {
	wins              []window
	attempted, failed int64
	// finished holds converged sessions whose results are checked after
	// the timed phase, off the clock.
	finished []finished
	// records are the traced dialogues kept for the replay.
	records []*record
	errs    []string
}

// win returns window i, growing the list as needed.
func (t *tally) win(i int) *window {
	for len(t.wins) <= i {
		t.wins = append(t.wins, window{})
	}
	return &t.wins[i]
}

// pooled merges every window's samples.
func (t *tally) pooled() window {
	var all window
	for i := range t.wins {
		all.merge(&t.wins[i])
	}
	return all
}

type finished struct {
	inst      *instance
	predicate string
	done      bool
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	for i := range o.wins {
		t.win(i).merge(&o.wins[i])
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.finished = append(t.finished, o.finished...)
	t.records = append(t.records, o.records...)
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// record is what the replay needs of one traced dialogue: the instance,
// how far the script ran, and the client sequence number of each step.
type record struct {
	inst *instance
	sid  string
	seqs []int
	// props are the proposals the server sent, one per step.
	props []int
}

// dialogue is one session being driven through its instance's script.
type dialogue struct {
	inst    *instance
	id      string
	pos     int // next script step
	seq     int // client operations issued so far
	classic bool
	rec     *record
}

// client drives dialogues over one endpoint and times each operation.
// With a tracer it also records a client span per operation.
type client struct {
	ep   endpoint
	node string
	tr   *tracer
	t    *tally
	// window says which window a sample taken now belongs to.
	window func() int
}

func (c *client) cur() *window {
	if c.window == nil {
		return c.t.win(0)
	}
	return c.t.win(c.window())
}

// op runs one client operation, spanning it when tracing.
func (c *client) op(d *dialogue, name string, fn func() error) error {
	c.t.attempted++
	var start int64
	if c.tr != nil {
		start = c.tr.now()
	}
	err := fn()
	if c.tr != nil && d.id != "" {
		c.tr.add(span{name: name, node: c.node, sid: d.id, seq: d.seq, start: start, end: c.tr.now()})
	}
	d.seq++
	return err
}

// begin creates the session; timed as create latency.
func (c *client) begin(inst *instance, classic bool) (*dialogue, error) {
	d := &dialogue{inst: inst, classic: classic}
	t0 := time.Now()
	err := c.op(d, "client.create", func() error {
		id, err := c.ep.create(inst.baseCSV, inst.seed)
		d.id = id
		return err
	})
	if err != nil {
		c.t.fail("create: %v", err)
		return nil, err
	}
	c.cur().create.addDur(time.Since(t0), time.Millisecond)
	if c.tr != nil {
		d.rec = &record{inst: inst, sid: d.id}
	}
	return d, nil
}

// run executes script steps until pos reaches stop, checking every
// reply against the script.
func (c *client) run(d *dialogue, stop int) error {
	for ; d.pos < stop; d.pos++ {
		st := &d.inst.script[d.pos]
		seq := d.seq
		var (
			prop int
			done bool
		)
		var err error
		t0 := time.Now()
		switch st.kind {
		case stepPropose:
			err = c.op(d, "client.propose", func() (err error) {
				prop, done, err = c.ep.propose(d.id)
				return err
			})
		case stepTurn:
			err = c.op(d, "client.turn", func() (err error) {
				prop, done, err = c.ep.turn(d.id, st.index, st.label, d.classic)
				return err
			})
			if err == nil {
				w := c.cur()
				w.turn.addDur(time.Since(t0), time.Millisecond)
				w.turns++
			}
		case stepAppend:
			var rows [][]string
			if rows, err = d.inst.rows(st.batch); err != nil {
				break
			}
			t0 = time.Now()
			err = c.op(d, "client.append", func() error {
				return c.ep.appendRows(d.id, rows)
			})
			if err == nil {
				c.cur().appendLat.addDur(time.Since(t0), time.Millisecond)
			}
			prop, done = st.prop, st.done
		}
		if err != nil {
			c.t.fail("session %s step %d: %v", d.id, d.pos, err)
			return err
		}
		if d.rec != nil {
			d.rec.seqs = append(d.rec.seqs, seq)
			d.rec.props = append(d.rec.props, prop)
		}
		c.t.attempted++ // the reply check
		if prop != st.prop || done != st.done {
			c.t.fail("session %s step %d: server proposed %d (done=%v), control proposed %d (done=%v)",
				d.id, d.pos, prop, done, st.prop, st.done)
			return fmt.Errorf("proposal mismatch")
		}
	}
	return nil
}

// verify asks for the next proposal without answering and checks it
// against the script: the failover and restore checks.
func (c *client) verify(d *dialogue) error {
	want, wantDone := d.inst.outstanding(d.pos)
	var (
		prop int
		done bool
	)
	err := c.op(d, "client.verify", func() (err error) {
		prop, done, err = c.ep.propose(d.id)
		return err
	})
	if err != nil {
		c.t.fail("verify %s: %v", d.id, err)
		return err
	}
	c.t.attempted++
	if prop != want || done != wantDone {
		c.t.fail("verify %s at step %d: server proposed %d, control proposed %d", d.id, d.pos, prop, want)
		return fmt.Errorf("proposal mismatch")
	}
	return nil
}

// end reads the result and deletes the session.
func (c *client) end(d *dialogue) error {
	if err := c.finish(d); err != nil {
		return err
	}
	return c.drop(d)
}

// finish reads the result, which is checked after the timed phase.
func (c *client) finish(d *dialogue) error {
	var (
		pred string
		done bool
	)
	err := c.op(d, "client.result", func() (err error) {
		pred, done, err = c.ep.result(d.id)
		return err
	})
	if err != nil {
		c.t.fail("result %s: %v", d.id, err)
		return err
	}
	c.t.finished = append(c.t.finished, finished{inst: d.inst, predicate: pred, done: done})
	if d.rec != nil {
		c.t.records = append(c.t.records, d.rec)
	}
	return nil
}

func (c *client) drop(d *dialogue) error {
	err := c.op(d, "client.delete", func() error { return c.ep.del(d.id) })
	if err != nil {
		c.t.fail("delete %s: %v", d.id, err)
	}
	return err
}

// whole drives one dialogue from create to delete. A dialogue whose
// reply check failed is dropped.
func (c *client) whole(inst *instance, classic bool) {
	d, err := c.begin(inst, classic)
	if err != nil {
		return
	}
	if c.run(d, len(inst.script)) != nil {
		c.drop(d)
		return
	}
	c.end(d)
}

// checkResults runs the output check of every finished dialogue; each
// check counts as an attempted operation. The check is a function of
// the instance and the reply alone, so each distinct pair is evaluated
// once.
func (t *tally) checkResults() {
	type key struct {
		inst      *instance
		predicate string
		done      bool
	}
	verdicts := map[key]error{}
	for _, f := range t.finished {
		k := key{f.inst, f.predicate, f.done}
		err, seen := verdicts[k]
		if !seen {
			err = f.inst.checkResult(f.predicate, f.done)
			if err == nil && f.predicate != f.inst.result {
				err = fmt.Errorf("result: server predicate %s, control predicate %s", f.predicate, f.inst.result)
			}
			verdicts[k] = err
		}
		t.attempted++
		if err != nil {
			t.fail("%v", err)
		}
	}
}
