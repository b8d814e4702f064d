// Command jimbench regenerates the paper's figures and the companion
// experiments as text tables and ASCII charts, and benchmarks the
// inference core's pick latency on large instances.
//
// Usage:
//
//	jimbench -list
//	jimbench -exp fig4 [-seed 7] [-trials 50]
//	jimbench -all [-quick]
//	jimbench -core [-tuples 10000] [-workloads zipf,synthetic,star] [-runs 4] [-stream 16] [-out BENCH_core.json]
//
// -core times every strategy pick of complete oracle-answered sessions
// against the naive from-scratch reference, and every State.Append
// against the rebuild-from-scratch alternative. Service latency and
// recovery are measured by perfbench (see perfbench/METRICS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/corebench"
	"repro/internal/experiments"
)

// options gathers everything main parses; run is kept effect-free for
// tests (all output goes to w or opts.out).
type options struct {
	list    bool
	exp     string
	all     bool
	expOpts experiments.Options

	core       bool
	workloads  string
	out        string
	tuples     int
	runs       int
	strategies string
	noBaseline bool
	stream     int
	procs      []int
}

func main() {
	var o options
	flag.BoolVar(&o.list, "list", false, "list available experiments")
	flag.StringVar(&o.exp, "exp", "", "experiment id to run (see -list)")
	flag.BoolVar(&o.all, "all", false, "run every experiment")
	seed := flag.Int64("seed", 1, "random seed")
	trials := flag.Int("trials", 0, "trials per randomized measurement (0 = default)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	flag.StringVar(&o.workloads, "workloads", "zipf,synthetic,star", "comma-separated workloads (with -core)")
	flag.StringVar(&o.out, "out", "BENCH_core.json", "machine-readable output file, - for stdout (with -core)")
	flag.BoolVar(&o.core, "core", false, "benchmark the inference core's pick latency instead of running experiments")
	flag.IntVar(&o.tuples, "tuples", 10000, "instance size (with -core)")
	flag.IntVar(&o.runs, "runs", 4, "measured sessions per strategy (with -core)")
	flag.StringVar(&o.strategies, "strategies", "", "comma-separated strategies (with -core; default the lookahead family)")
	flag.BoolVar(&o.noBaseline, "no-baseline", false, "skip the naive reference measurement (with -core)")
	flag.IntVar(&o.stream, "stream", 0, "streaming-ingestion batches: 0 = default (16), negative disables (with -core)")
	procs := flag.String("procs", "auto", "GOMAXPROCS sweep for the scaling entries: comma-separated counts, auto = 1, half, and all cores, empty disables (with -core)")
	flag.Parse()
	var err error
	if o.procs, err = parseProcs(*procs); err != nil {
		fmt.Fprintln(os.Stderr, "jimbench:", err)
		os.Exit(2)
	}
	o.expOpts = experiments.Options{Seed: *seed, Trials: *trials, Quick: *quick}

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "jimbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	switch {
	case o.core:
		return runCoreBench(w, o)
	case o.list:
		for _, id := range experiments.IDs() {
			title, err := experiments.Title(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %s\n", id, title)
		}
		return nil
	case o.all:
		return experiments.RunAll(w, o.expOpts)
	case o.exp != "":
		res, err := experiments.Run(o.exp, o.expOpts)
		if err != nil {
			return err
		}
		return res.Render(w)
	default:
		return fmt.Errorf("nothing to do: pass -list, -exp <id>, -all, or -core")
	}
}

// runCoreBench measures strategy pick latency and session throughput
// on large single-node instances (incremental scorer vs the naive
// reference) and writes BENCH_core.json.
func runCoreBench(w io.Writer, o options) error {
	cfg := corebench.Config{
		Workloads:     splitList(o.workloads),
		Tuples:        o.tuples,
		Sessions:      o.runs,
		Baseline:      !o.noBaseline,
		StreamBatches: o.stream, // 0 = corebench default, negative disables
		Procs:         o.procs,
		Seed:          o.expOpts.Seed,
	}
	if o.strategies != "" {
		cfg.Strategies = splitList(o.strategies)
	}
	if len(cfg.Workloads) == 0 {
		return fmt.Errorf("no workloads selected")
	}
	rep, err := corebench.Run(w, cfg)
	if err != nil {
		return err
	}
	if done, err := writeReport(w, o.out, rep); done || err != nil {
		return err
	}
	picks := 0
	for _, wl := range rep.Workloads {
		for _, sr := range wl.Results {
			picks += sr.Incremental.Picks
		}
	}
	fmt.Fprintf(w, "wrote %s: %d workloads at %d tuples, %d timed picks\n",
		o.out, len(rep.Workloads), rep.Tuples, picks)
	return nil
}

// parseProcs resolves the -procs flag: "" disables the sweep, "auto"
// picks 1, half the cores, and all cores (deduplicated — a single-core
// machine sweeps just [1]), and anything else is a comma-separated list
// of processor counts.
func parseProcs(s string) ([]int, error) {
	switch s {
	case "":
		return nil, nil
	case "auto":
		n := runtime.NumCPU()
		var out []int
		for _, p := range []int{1, n / 2, n} {
			if p >= 1 && (len(out) == 0 || out[len(out)-1] != p) {
				out = append(out, p)
			}
		}
		return out, nil
	}
	var out []int
	for _, e := range splitList(s) {
		var p int
		if _, err := fmt.Sscanf(e, "%d", &p); err != nil || p < 1 {
			return nil, fmt.Errorf("-procs wants positive counts or auto, got %q", e)
		}
		out = append(out, p)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// writeReport marshals a benchmark payload to out, or to w when out is
// "-" or empty; done reports that the payload already went to w.
func writeReport(w io.Writer, out string, payload any) (done bool, err error) {
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return false, err
	}
	data = append(data, '\n')
	if out == "" || out == "-" {
		_, err = w.Write(data)
		return true, err
	}
	return false, os.WriteFile(out, data, 0o644)
}
