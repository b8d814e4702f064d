package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// cycleResult is what the durable failover cycle measured.
type cycleResult struct {
	t                   tally
	failoverS, restoreS float64
	syncMS, promoteMS   float64
	queuedAfterSync     float64
	// walBytes is the size of n1's WAL files when it was killed.
	walBytes float64
}

// cycle runs the durable failover cycle on a fresh two-node cluster,
// each node on a disk store with fsync on (group commit): open a fleet
// on n1 and label it half way, sync replication, kill n1, promote n2
// (failover), restore n1's directory in a fresh server (restore), and
// finish every dialogue on n2.
func (e *env) cycle(tr *tracer) (*cycleResult, error) {
	res := &cycleResult{}
	root, err := os.MkdirTemp(filepath.Join(workdir, "tmp"), "data-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	nodes, err := startCluster(root, tr)
	if err != nil {
		return nil, err
	}
	n1, n2 := nodes[0], nodes[1]
	defer n1.kill()
	defer n2.kill()

	// Phase 1: the fleet, created on n1 and labeled half way. Phases
	// run one after another and within a phase each session belongs to
	// one client, so no session ever has two requests in flight.
	fleet := make([]*dialogue, e.w.fleet)
	var next atomic.Int64
	err = e.withClients(n1, tr, &res.t, nil, func(_ int, c *client) {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(fleet) {
				return
			}
			inst := e.pool[k%len(e.pool)]
			d, err := c.begin(inst, false)
			if err != nil {
				continue
			}
			if c.run(d, inst.halfway()) != nil {
				c.drop(d)
				continue
			}
			fleet[k] = d
		}
	})
	if err != nil {
		return nil, err
	}
	live := fleet[:0]
	for _, d := range fleet {
		if d != nil {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("durable cycle: no session survived phase 1")
	}

	// Phase 2: the replication barrier, then the queue depth right
	// after it — recorded, not asserted.
	t0 := time.Now()
	var hz health
	res.t.attempted++
	if err := control("GET", "http://"+n1.httpAddr+"/healthz?sync=1", nil, &hz); err != nil {
		return nil, err
	}
	res.syncMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if hz.Replication == nil || hz.Replication.Synced == nil || !*hz.Replication.Synced {
		res.t.fail("sync barrier on n1 did not report synced")
	}
	res.t.attempted++
	if err := control("GET", "http://"+n1.httpAddr+"/healthz", nil, &hz); err != nil {
		return nil, err
	}
	if hz.Replication != nil && hz.Replication.Ship != nil {
		res.queuedAfterSync = float64(hz.Replication.Ship.QueuedEvents)
	}

	// Phase 3: kill n1 — no shutdown snapshot.
	n1.kill()
	res.walBytes = walBytes(n1.dir)

	// Phase 4: failover, from the promote call until every session
	// answers on n2 with the control's proposal.
	t0 = time.Now()
	var promoted struct {
		PromotedTo      string `json:"promoted_to"`
		AdoptedSessions int    `json:"adopted_sessions"`
	}
	res.t.attempted++
	if err := control("POST", "http://"+n2.httpAddr+"/v1/cluster/promote", map[string]string{"node": "n1"}, &promoted); err != nil {
		return nil, err
	}
	res.promoteMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if promoted.PromotedTo != "n2" || promoted.AdoptedSessions != len(live) {
		res.t.fail("promote: adopted %d of %d sessions onto %q", promoted.AdoptedSessions, len(live), promoted.PromotedTo)
	}
	if err := e.verifyAll(n2, tr, &res.t, live); err != nil {
		return nil, err
	}
	res.failoverS = time.Since(t0).Seconds()

	// Phase 5: restore, from opening n1's directory in a fresh server
	// until every session answers there with the control's proposal.
	t0 = time.Now()
	ds, err := store.NewDisk(store.DiskOptions{Dir: n1.dir, Fsync: true})
	if err != nil {
		return nil, err
	}
	n1r, err := newNode("n1r", ds, tr)
	if err != nil {
		return nil, err
	}
	err = e.verifyAll(n1r, tr, &res.t, live)
	res.restoreS = time.Since(t0).Seconds()
	n1r.kill()
	if err != nil {
		return nil, err
	}

	// Phase 6: every dialogue runs to convergence on n2; the data
	// directories go with the cycle.
	err = e.withClients(n2, tr, &res.t, nil, func(i int, c *client) {
		for k := i; k < len(live); k += clients {
			d := live[k]
			if c.run(d, len(d.inst.script)) == nil {
				c.finish(d)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.t.checkResults()
	return res, nil
}

// verifyAll asks n for every session's next proposal and checks it
// against the control.
func (e *env) verifyAll(n *node, tr *tracer, t *tally, live []*dialogue) error {
	return e.withClients(n, tr, t, nil, func(i int, c *client) {
		for k := i; k < len(live); k += clients {
			c.verify(live[k])
		}
	})
}

// walBytes sums the WAL files under a disk store's directory.
func walBytes(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == "wal.log" {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total)
}
