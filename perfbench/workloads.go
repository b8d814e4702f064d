package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// clients is the closed-loop client count: one per core of the
// two-core machine the benchmark was tuned on, each on its own
// connection, each waiting for every reply.
const clients = 2

// workload is one named traffic mix.
type workload struct {
	name string
	pool poolSpec
	// http selects the /v1 JSON transport; otherwise the wire protocol.
	http bool
	// classicEvery sends every classicEvery-th session through /next +
	// /label instead of /step (HTTP only; 0 = never).
	classicEvery int
	// warmup is how many untimed dialogues each client runs in set-up.
	warmup int
	// heapFleet is how many sessions the heap probe opens.
	heapFleet int
	// windows is how many windows the measured phase is cut into; each
	// must hold enough turns for the tail percentile.
	windows int
	// fleet, when set, adds the durable failover cycle to the traced
	// run with a fleet of this many sessions.
	fleet int
}

var workloads = []workload{
	{
		name: "chat-http",
		pool: poolSpec{families: []string{"travel", "synthetic", "zipf"}, size: 60,
			baseNum: 3, baseDen: 4, batches: 1, appendEvery: 1},
		http: true, classicEvery: 4, warmup: 30, heapFleet: 300, windows: 15,
	},
	{
		name: "bulk-wire",
		pool: poolSpec{families: []string{"synthetic"}, tuples: 5000, size: 24,
			baseNum: 1, baseDen: 4, batches: 4, appendEvery: 3},
		warmup: 2, heapFleet: 16, windows: 6, fleet: 64,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what set-up leaves for the measured phases.
type env struct {
	w    workload
	pool []*instance
	// single is the mem-store server the workload runs against.
	single *node
	// warm counts the warm-up operations, which the result reports too.
	warm tally
}

func (e *env) close() {
	if e.single != nil {
		e.single.kill()
	}
}

// setup generates the instances, starts the server and runs the
// warm-up dialogues.
func setup(w workload, seed int64) (*env, error) {
	pool, err := buildPool(w.pool, seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, pool: pool}
	if e.single, err = newNode("solo", store.NewMem(), nil); err != nil {
		return nil, err
	}
	if err := e.warmup(e.single, nil); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) warmup(n *node, tr *tracer) error {
	return e.withClients(n, tr, &e.warm, nil, func(i int, c *client) {
		for k := 0; k < e.w.warmup; k++ {
			c.whole(e.pool[(i*e.w.warmup+k)%len(e.pool)], false)
		}
	})
}

// dial opens one client connection to n.
func (e *env) dial(n *node, tr *tracer, t *tally) (*client, error) {
	var ep endpoint
	if e.w.http {
		ep = newHTTPEndpoint(n.httpAddr)
	} else {
		we, err := dialWire(n.wireAddr)
		if err != nil {
			return nil, err
		}
		ep = we
	}
	return &client{ep: ep, node: n.id, tr: tr, t: t}, nil
}

// withClients runs body once per client, each on its own connection
// to n and its own tally, waits for all of them and merges the tallies
// into into. win assigns samples to windows (nil: window 0).
func (e *env) withClients(n *node, tr *tracer, into *tally, win func() int, body func(i int, c *client)) error {
	cs := make([]*client, clients)
	for i := range cs {
		c, err := e.dial(n, tr, &tally{})
		if err != nil {
			for _, c := range cs[:i] {
				c.ep.close()
			}
			return err
		}
		c.window = win
		cs[i] = c
	}
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			body(i, c)
		}(i, c)
	}
	wg.Wait()
	for _, c := range cs {
		c.ep.close()
		into.merge(c.t)
	}
	return nil
}

// measured is what one measured phase produced.
type measured struct {
	t        tally
	rt0, rt1 runtimeReading
	heapKB   float64
}

// measure runs the workload's timed phase for about d.
func (e *env) measure(d time.Duration, tr *tracer) (*measured, error) {
	m := &measured{}
	m.rt0 = readRuntime()
	err := e.closedLoop(d, tr, m)
	m.rt1 = readRuntime()
	if err != nil {
		return nil, err
	}
	m.t.checkResults()
	return m, nil
}

// closedLoop runs back-to-back dialogues on every client until d has
// passed, then opens a fleet to measure live heap per session.
func (e *env) closedLoop(d time.Duration, tr *tracer, m *measured) error {
	n := e.single
	if tr != nil {
		traced, err := newNode("solo", store.NewMem(), tr)
		if err != nil {
			return err
		}
		defer traced.kill()
		if err := e.warmup(traced, tr); err != nil {
			return err
		}
		tr.reset()
		n = traced
	}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	windows := e.w.windows
	span := d / time.Duration(windows)
	win := func() int { return min(int(time.Since(start)/span), windows-1) }
	err := e.withClients(n, tr, &m.t, win, func(_ int, c *client) {
		for time.Now().Before(deadline) {
			s := int(next.Add(1) - 1)
			classic := e.w.classicEvery > 0 && s%e.w.classicEvery == e.w.classicEvery-1
			c.whole(e.pool[s%len(e.pool)], classic)
		}
	})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	for i := 0; i < windows; i++ {
		m.t.win(i).dur = span
	}
	// The last window also holds the dialogues finished after the deadline.
	m.t.win(windows - 1).dur = elapsed - time.Duration(windows-1)*span
	return e.heapProbe(n, m)
}

// heapProbe opens heapFleet sessions, each with its first proposal
// served, and reports the live heap they add per session.
func (e *env) heapProbe(n *node, m *measured) error {
	var probe tally
	c, err := e.dial(n, nil, &probe)
	if err != nil {
		return err
	}
	defer c.ep.close()
	before := liveHeap()
	open := make([]*dialogue, 0, e.w.heapFleet)
	for k := 0; k < e.w.heapFleet; k++ {
		d, err := c.begin(e.pool[k%len(e.pool)], false)
		if err != nil {
			break
		}
		open = append(open, d)
		if c.run(d, 1) != nil {
			break
		}
	}
	after := liveHeap()
	for _, d := range open {
		c.drop(d)
	}
	m.t.attempted += probe.attempted
	m.t.failed += probe.failed
	m.t.errs = append(m.t.errs, probe.errs...)
	if len(open) == 0 {
		return fmt.Errorf("heap probe opened no session")
	}
	m.heapKB = (after - before) / float64(len(open)) / 1024
	return nil
}
