package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corebench"
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

func TestRunCoreBench(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_core.json")
	var buf bytes.Buffer
	o := options{
		core:       true,
		tuples:     400,
		runs:       1,
		workloads:  "zipf,star",
		strategies: "lookahead-maxmin",
		procs:      []int{1},
		out:        out,
		expOpts:    quickOpts(),
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var bench corebench.Report
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if bench.Benchmark != "jim-core-pick" || bench.Tuples != 400 {
		t.Errorf("bench header = %+v", bench)
	}
	if len(bench.Workloads) != 2 {
		t.Fatalf("workloads = %d, want 2", len(bench.Workloads))
	}
	for _, wl := range bench.Workloads {
		if len(wl.Results) != 1 || wl.Results[0].Strategy != "lookahead-maxmin" {
			t.Fatalf("%s results = %+v", wl.Workload, wl.Results)
		}
		sr := wl.Results[0]
		if sr.Incremental.Picks == 0 || sr.Naive == nil || sr.PickSpeedup <= 0 {
			t.Errorf("%s: incomplete comparison %+v", wl.Workload, sr)
		}
	}
	if len(bench.ProcsSweep) != 2 { // one entry per workload at 1 proc
		t.Fatalf("procs sweep = %+v, want 2 entries", bench.ProcsSweep)
	}
	for _, e := range bench.ProcsSweep {
		if e.Procs != 1 || e.Strategy != "lookahead-maxmin" || e.PicksPerSec <= 0 {
			t.Errorf("sweep entry incomplete: %+v", e)
		}
		if e.SpeedupVs1 != 1 {
			t.Errorf("1-proc entry speedup = %v, want 1 (it is its own baseline)", e.SpeedupVs1)
		}
	}
	if !strings.Contains(buf.String(), "wrote "+out) {
		t.Errorf("summary line missing: %s", buf.String())
	}

	// -out - writes the report to stdout instead.
	buf.Reset()
	o = options{core: true, tuples: 60, runs: 1, workloads: "star", strategies: "lookahead-maxmin", noBaseline: true, stream: -1, out: "-"}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"benchmark": "jim-core-pick"`) {
		t.Errorf("stdout mode missing JSON payload:\n%s", buf.String())
	}

	// Unknown workloads and strategies must fail loudly.
	if err := run(&buf, options{core: true, tuples: 50, runs: 1, workloads: "bogus", out: "-"}); err == nil {
		t.Error("unknown core workload accepted")
	}
	if err := run(&buf, options{core: true, tuples: 50, runs: 1, workloads: "star", strategies: "bogus", out: "-"}); err == nil {
		t.Error("unknown core strategy accepted")
	}
	if err := run(&buf, options{core: true, tuples: 50, runs: 1, workloads: "", out: "-"}); err == nil {
		t.Error("empty core workload list accepted")
	}
}
