package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricEntry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload #%d: BENCHMARK.json has %s, the benchmark has %s", i, w.Name, workloads[i].name)
		}
	}
}

// Every workload and per-layer metric must be explained in METRICS.md,
// with the end-to-end metric it should move.
func TestMetricsDocumented(t *testing.T) {
	raw, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, w := range workloads {
		if !strings.Contains(doc, "`"+w.name+"`") {
			t.Errorf("METRICS.md does not describe workload %s", w.name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(doc, "`"+m.name+"`") {
			t.Errorf("METRICS.md does not describe metric %s", m.name)
		}
	}
}
