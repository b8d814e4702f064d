package main

import (
	"fmt"
	"os"
	"strings"
)

const (
	usec = 1e3 // ns per µs
	msec = 1e6 // ns per ms
	sec  = 1e9 // ns per s
)

// layerValues computes the per-layer metrics from the linked spans of
// the traced phase, the replay, and the untraced phase of the same run.
// A metric whose layer the workload does not exercise is 0.
func layerValues(w workload, plain, tm *measured, cyc *cycleResult, tr *tracer, rt *replayTimes) map[string]float64 {
	kids := tr.children()
	var (
		stepHandler, createHandler, clientGap          samples
		stepTransport, createTransport, stepBackend    samples
		createBackend, residual                        samples
		storeAppend, storeSnap, applyEvent, applySn    samples
		loadall                                        samples
		respBytes, turns, durableTurns, appendsInTurns float64
		n1Appends, residualSum, clientSum              float64
		bugs, negResidual                              int
	)
	spanOf := func(i int) *span { return &tr.spans[i] }
	// serverKids returns the server-layer children of a client span and
	// the store time nested under them.
	serverKids := func(i int) (ivs []interval, store float64, appends int, bytes int) {
		for _, k := range kids[i] {
			s := spanOf(k)
			if rank(s.name) != 1 {
				continue
			}
			ivs = append(ivs, interval{s.start, s.end})
			bytes += s.bytes
			for _, g := range kids[k] {
				if gs := spanOf(g); strings.HasPrefix(gs.name, "store.") {
					store += float64(gs.dur())
					if gs.name == "store.append" {
						appends++
					}
				}
			}
		}
		return
	}
	for i := range tr.spans {
		s := spanOf(i)
		switch s.name {
		case "client.turn":
			ivs, store, appends, bytes := serverKids(i)
			if len(ivs) == 0 {
				bugs++ // a turn the server layer never saw
				continue
			}
			client := float64(s.dur())
			gap := float64(selfTime(interval{s.start, s.end}, ivs))
			server := client - gap
			if s.node != "solo" {
				// A turn of the durable cycle: it feeds the store
				// metrics, not the transport and server ones.
				durableTurns++
				appendsInTurns += float64(appends)
				if _, ok := rt.perTurn[fmt.Sprintf("%s/%d", s.sid, s.seq)]; !ok {
					bugs++
				}
				continue
			}
			turns++
			respBytes += float64(bytes)
			if w.http {
				clientGap.add(gap / usec)
			} else {
				stepTransport.add(gap / usec)
			}
			for _, k := range kids[i] {
				switch ks := spanOf(k); ks.name {
				case "http.step":
					stepHandler.add(float64(ks.dur()) / usec)
				case "server.step":
					stepBackend.add(float64(ks.dur()) / usec)
				}
			}
			tt, ok := rt.perTurn[fmt.Sprintf("%s/%d", s.sid, s.seq)]
			if !ok {
				bugs++ // every traced turn must have been replayed
				continue
			}
			r := server - store - float64(tt.core) - float64(tt.pick)
			residual.add(r / usec)
			residualSum += r
			clientSum += client
			// The measured layers must fit inside the client's time.
			// Core and strategy times come from the replay, a second
			// execution of the same work that need not fit exactly; a
			// replay slower than the server shows as a negative
			// residual, counted here.
			if server > client || store > server {
				bugs++
			}
			if r < 0 {
				negResidual++
			}
		case "client.create":
			ivs, _, _, _ := serverKids(i)
			if len(ivs) > 0 && !w.http && s.node == "solo" {
				createTransport.add(float64(selfTime(interval{s.start, s.end}, ivs)) / usec)
			}
		case "http.create":
			createHandler.add(float64(s.dur()) / usec)
		case "server.create":
			if s.node == "solo" {
				createBackend.add(float64(s.dur()) / msec)
			}
		case "store.append":
			storeAppend.add(float64(s.dur()) / usec)
			if s.node == "n1" {
				n1Appends++
			}
		case "store.snapshot":
			storeSnap.add(float64(s.dur()) / msec)
		case "store.loadall":
			if s.node == "n1r" { // the restore; n1 and n2 load empty directories
				loadall.add(float64(s.dur()) / sec)
			}
		case "cluster.apply_event":
			applyEvent.add(float64(s.dur()) / usec)
		case "cluster.apply_snapshot":
			applySn.add(float64(s.dur()) / usec)
		}
	}
	if bugs > 0 {
		tm.t.fail("trace: %d turns whose layers do not fit inside their client time", bugs)
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	plainAll, tracedAll := plain.t.pooled(), tm.t.pooled()
	turnsU := float64(plainAll.turns)
	rt1, rt0 := plain.rt1, plain.rt0
	fmt.Fprintf(os.Stderr, "perfbench: traced %d turns (+%d in the durable cycle), replayed %d, %d with replayed core+strategy above the server span; %d spans\n",
		int(turns), int(durableTurns), rt.turns, negResidual, len(tr.spans))
	return map[string]float64{
		"http.step_handler_p50_us":      stepHandler.quantile(50),
		"http.create_handler_p50_us":    createHandler.quantile(50),
		"http.client_gap_p50_us":        clientGap.quantile(50),
		"http.resp_bytes_per_turn":      div(respBytes, turns),
		"wire.step_transport_p50_us":    stepTransport.quantile(50),
		"wire.create_transport_p50_us":  createTransport.quantile(50),
		"server.step_backend_p50_us":    stepBackend.quantile(50),
		"server.step_backend_p99_us":    stepBackend.quantile(99),
		"server.create_backend_p50_ms":  createBackend.quantile(50),
		"server.step_residual_p50_us":   residual.quantile(50),
		"relation.parse_csv_p50_ms":     rt.parse.quantile(50),
		"core.new_state_p50_ms":         rt.newState.quantile(50),
		"core.answer_p50_us":            rt.answer.quantile(50),
		"core.append_p50_us":            rt.append.quantile(50),
		"strategy.pick_p50_us":          rt.picks.quantile(50),
		"strategy.pick_p99_us":          rt.picks.quantile(99),
		"strategy.picks_per_turn":       div(float64(rt.turnPicks), float64(rt.turns)),
		"store.append_p50_us":           storeAppend.quantile(50),
		"store.append_p99_us":           storeAppend.quantile(99),
		"store.appends_per_turn":        div(appendsInTurns, durableTurns),
		"store.snapshot_p50_ms":         storeSnap.quantile(50),
		"store.snapshots":               float64(len(storeSnap)),
		"store.wal_bytes_per_event":     div(cyc.walBytes, n1Appends),
		"store.loadall_s":               loadall.quantile(50),
		"store.rebuild_s":               nonNegative(cyc.restoreS - loadall.quantile(50)),
		"store.restore_s":               cyc.restoreS,
		"cluster.apply_event_p50_us":    applyEvent.quantile(50),
		"cluster.apply_snapshot_p50_us": applySn.quantile(50),
		"cluster.applied_ratio":         div(float64(len(applyEvent)), n1Appends),
		"cluster.events_appended":       n1Appends,
		"cluster.sync_ms":               cyc.syncMS,
		"cluster.promote_ms":            cyc.promoteMS,
		"cluster.queued_after_sync":     cyc.queuedAfterSync,
		"cluster.failover_s":            cyc.failoverS,
		"runtime.alloc_kb_per_turn":     div(rt1.allocBytes-rt0.allocBytes, turnsU) / 1024,
		"runtime.gc_cpu_fraction":       div(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU),
		"trace.overhead_ratio":          div(tracedAll.turn.quantile(50), plainAll.turn.quantile(50)),
		"trace.unexplained_share":       div(residualSum, clientSum),
	}
}

func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
