package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func quickOpts() experiments.Options {
	return experiments.Options{Seed: 1, Trials: 2, Quick: true}
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{list: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range experiments.IDs() {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{exp: "fig1", expOpts: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "To=City") {
		t.Errorf("fig1 output missing inferred atoms:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{exp: "nope", expOpts: quickOpts()}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(&buf, options{}); err == nil {
		t.Error("no-op invocation accepted")
	}
}

// TestFlagsAreFigureOptionsOnly pins the command line to the paper's
// figures and experiments: six flags, and the retired core-benchmark
// flags are rejected (that comparison is BenchmarkPick10k now).
func TestFlagsAreFigureOptionsOnly(t *testing.T) {
	var help bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &help); err != flag.ErrHelp {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(help.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(f)[0])
		}
	}
	want := []string{"all", "exp", "list", "quick", "seed", "trials"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-h lists flags %v, want %v", got, want)
	}
	o, err := parseFlags([]string{"-exp", "fig4", "-seed", "7", "-trials", "50", "-quick"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "fig4" || o.expOpts != (experiments.Options{Seed: 7, Trials: 50, Quick: true}) {
		t.Errorf("parsed %+v", o)
	}
	for _, retired := range []string{"-core", "-workloads", "-procs"} {
		if _, err := parseFlags([]string{retired}, io.Discard); err == nil {
			t.Errorf("%s accepted", retired)
		}
	}
}
