// Command jimbench regenerates the paper's figures and the companion
// experiments as text tables and ASCII charts.
//
// Usage:
//
//	jimbench -list
//	jimbench -exp fig4 [-seed 7] [-trials 50]
//	jimbench -all [-quick]
//
// The incremental-vs-naive pick and append-vs-rebuild comparisons are
// Go benchmarks (BenchmarkPick10k and BenchmarkAppend10k in the
// module root); service latency and recovery are measured by perfbench
// (see perfbench/METRICS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

// options gathers everything main parses; run is kept effect-free for
// tests (all output goes to w).
type options struct {
	list    bool
	exp     string
	all     bool
	expOpts experiments.Options
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "jimbench:", err)
		os.Exit(1)
	}
}

// parseFlags parses the command line; usage and errors go to errOut.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("jimbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.BoolVar(&o.list, "list", false, "list available experiments")
	fs.StringVar(&o.exp, "exp", "", "experiment id to run (see -list)")
	fs.BoolVar(&o.all, "all", false, "run every experiment")
	seed := fs.Int64("seed", 1, "random seed")
	trials := fs.Int("trials", 0, "trials per randomized measurement (0 = default)")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	err := fs.Parse(args)
	o.expOpts = experiments.Options{Seed: *seed, Trials: *trials, Quick: *quick}
	return o, err
}

func run(w io.Writer, o options) error {
	switch {
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
		return fmt.Errorf("nothing to do: pass -list, -exp <id>, or -all")
	}
}
