// Command perfbench is the repository benchmark: it runs one named
// closed-loop workload against in-process JIM servers, checks every
// output, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer metrics of a traced run — as one JSON line.
//
//	bash perfbench/run.sh --workload chat-http --seed 1 --seconds 30 --trace 0
//
// See METRICS.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setups is how many times set-up runs; setup_s is their median.
const setups = 5

// workdir, under the checkout the benchmark runs from, holds the
// durable cycle's data directories and the span files.
const workdir = ".bench_build/perfbench"

// endToEnd and perLayer name every metric the benchmark prints, with
// its unit; BENCHMARK.json lists the same (metrics_test.go holds them
// equal).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"turns_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"step_p90_ms", "ms"},
	{"create_p50_ms", "ms"},
	{"create_p90_ms", "ms"},
	{"append_p50_ms", "ms"},
	{"append_p90_ms", "ms"},
	{"session_heap_kb", "KiB"},
}

var perLayer = []metricDef{
	{"http.step_handler_p50_us", "us"},
	{"http.create_handler_p50_us", "us"},
	{"http.client_gap_p50_us", "us"},
	{"http.resp_bytes_per_turn", "bytes"},
	{"wire.step_transport_p50_us", "us"},
	{"wire.create_transport_p50_us", "us"},
	{"server.step_backend_p50_us", "us"},
	{"server.step_backend_p99_us", "us"},
	{"server.create_backend_p50_ms", "ms"},
	{"server.step_residual_p50_us", "us"},
	{"relation.parse_csv_p50_ms", "ms"},
	{"core.new_state_p50_ms", "ms"},
	{"core.answer_p50_us", "us"},
	{"core.append_p50_us", "us"},
	{"strategy.pick_p50_us", "us"},
	{"strategy.pick_p99_us", "us"},
	{"strategy.picks_per_turn", "count"},
	{"store.append_p50_us", "us"},
	{"store.append_p99_us", "us"},
	{"store.appends_per_turn", "count"},
	{"store.snapshot_p50_ms", "ms"},
	{"store.snapshots", "count"},
	{"store.wal_bytes_per_event", "bytes"},
	{"store.loadall_s", "s"},
	{"store.rebuild_s", "s"},
	{"store.restore_s", "s"},
	{"cluster.apply_event_p50_us", "us"},
	{"cluster.apply_snapshot_p50_us", "us"},
	{"cluster.applied_ratio", "fraction"},
	{"cluster.events_appended", "count"},
	{"cluster.sync_ms", "ms"},
	{"cluster.promote_ms", "ms"},
	{"cluster.queued_after_sync", "count"},
	{"cluster.failover_s", "s"},
	{"runtime.alloc_kb_per_turn", "KiB"},
	{"runtime.gc_cpu_fraction", "fraction"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unexplained_share", "fraction"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: chat-http or bulk-wire")
	seed := flag.Int64("seed", 1, "seed the workload's instances are generated from")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(filepath.Join(workdir, "tmp"), 0o755); err != nil {
		return err
	}

	var (
		e      *env
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		next, err := setup(w, *seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if e != nil {
			e.close()
		}
		e = next
	}
	defer e.close()

	d := time.Duration(*seconds) * time.Second
	if *traced == 0 {
		m, err := e.measure(d, nil)
		if err != nil {
			return err
		}
		vals, err := endToEndValues(m, median(setupS))
		if err != nil {
			return err
		}
		return emit(e, m, endToEnd, vals)
	}

	// The traced run measures untraced for half its time, then traced
	// for the other half, runs the durable failover cycle where the
	// workload has one, and replays every traced dialogue.
	plain, err := e.measure(d/2, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	tm, err := e.measure(d/2, tr)
	if err != nil {
		return err
	}
	cyc := &cycleResult{}
	if w.fleet > 0 {
		if cyc, err = e.cycle(tr); err != nil {
			return fmt.Errorf("durable cycle: %w", err)
		}
	}
	rt := &replayTimes{perTurn: map[string]turnTime{}}
	for _, rec := range append(tm.t.records, cyc.t.records...) {
		tm.t.attempted++
		if err := replay(rec, rt); err != nil {
			tm.t.fail("%v", err)
		}
	}
	tr.link()
	vals := layerValues(w, plain, tm, cyc, tr, rt)
	if err := tr.write(filepath.Join(workdir, "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))); err != nil {
		return err
	}
	plain.t.merge(&tm.t)
	plain.t.merge(&cyc.t)
	return emit(e, plain, perLayer, vals)
}

// endToEndValues computes the end-to-end metrics of an untraced phase:
// each is the median over the phase's windows of the window's value.
func endToEndValues(m *measured, setupS float64) (map[string]float64, error) {
	all := m.t.pooled()
	for _, s := range []struct {
		name string
		ss   samples
		p    float64
	}{{"turn", all.turn, 90}, {"create", all.create, 90}, {"append", all.appendLat, 90}} {
		if !s.ss.supports(s.p) {
			return nil, fmt.Errorf("%d %s samples cannot support p%g: run longer", len(s.ss), s.name, s.p)
		}
		top, beyond, _ := tailPercentile(len(s.ss))
		fmt.Fprintf(os.Stderr, "perfbench: %s latency: %d samples in %d windows, highest supported percentile p%g (%d beyond)\n",
			s.name, len(s.ss), len(m.t.wins), top, beyond)
	}
	perWindow := func(f func(w *window) float64) float64 {
		var v []float64
		for i := range m.t.wins {
			v = append(v, f(&m.t.wins[i]))
		}
		return median(v)
	}
	var rates []string
	for i := range m.t.wins {
		rates = append(rates, fmt.Sprintf("%.0f", float64(m.t.wins[i].turns)/m.t.wins[i].dur.Seconds()))
	}
	fmt.Fprintf(os.Stderr, "perfbench: turns/s per window: %s\n", strings.Join(rates, " "))
	return map[string]float64{
		"setup_s":         setupS,
		"turns_per_s":     perWindow(func(w *window) float64 { return float64(w.turns) / w.dur.Seconds() }),
		"step_p50_ms":     perWindow(func(w *window) float64 { return w.turn.quantile(50) }),
		"step_p90_ms":     perWindow(func(w *window) float64 { return w.turn.quantile(90) }),
		"create_p50_ms":   perWindow(func(w *window) float64 { return w.create.quantile(50) }),
		"create_p90_ms":   perWindow(func(w *window) float64 { return w.create.quantile(90) }),
		"append_p50_ms":   perWindow(func(w *window) float64 { return w.appendLat.quantile(50) }),
		"append_p90_ms":   perWindow(func(w *window) float64 { return w.appendLat.quantile(90) }),
		"session_heap_kb": m.heapKB,
	}, nil
}

// emit prints the result line: every metric of defs, plus the
// operation and check counts. Failures are listed on standard error.
func emit(e *env, m *measured, defs []metricDef, vals map[string]float64) error {
	t := &m.t
	t.attempted += e.warm.attempted
	t.failed += e.warm.failed
	t.errs = append(e.warm.errs, t.errs...)
	for _, msg := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	out := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		v, ok := vals[def.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", def.name)
		}
		out.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(os.Stderr, "perfbench: %-32s %14.6g %s\n", def.name, v, def.unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: failed_ratio %d/%d\n", t.failed, t.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
