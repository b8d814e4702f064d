package server_test

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestDifferentialConvergence drives the same instance, strategy, and
// goal through the HTTP API and through the in-process core.Engine,
// and requires both to infer the same predicate M_P with the same
// number of questions — the service must add routing and locking, not
// change the inference.
func TestDifferentialConvergence(t *testing.T) {
	synth := func(cfg workload.SynthConfig) func(t *testing.T) (*relation.Relation, partition.P) {
		return func(t *testing.T) (*relation.Relation, partition.P) {
			t.Helper()
			rel, goal, err := workload.Synthetic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rel, goal
		}
	}
	cases := []struct {
		name     string
		strategy string
		make     func(t *testing.T) (*relation.Relation, partition.P)
	}{
		{
			name: "travel/lookahead-maxmin", strategy: "lookahead-maxmin",
			make: func(t *testing.T) (*relation.Relation, partition.P) {
				return workload.Travel(), workload.TravelQ2()
			},
		},
		{
			name: "synthetic/lookahead-maxmin", strategy: "lookahead-maxmin",
			make: synth(workload.SynthConfig{Attrs: 6, Tuples: 80, GoalAtoms: 2, ExtraMerges: 1.5, Seed: 11}),
		},
		{
			name: "synthetic/lookahead-entropy", strategy: "lookahead-entropy",
			make: synth(workload.SynthConfig{Attrs: 5, Tuples: 60, GoalAtoms: 2, ExtraMerges: 2, Seed: 3}),
		},
		{
			name: "synthetic/local-most-specific", strategy: "local-most-specific",
			make: synth(workload.SynthConfig{Attrs: 6, Tuples: 100, GoalAtoms: 3, ExtraMerges: 1.5, Seed: 7}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel, goal := tc.make(t)

			// Reference: the in-process engine with a goal oracle.
			st, err := core.NewState(rel)
			if err != nil {
				t.Fatal(err)
			}
			picker, err := strategy.ByName(tc.strategy, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewEngine(st, picker, oracle.Goal(goal)).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged {
				t.Fatal("reference engine did not converge")
			}

			// Same inference over HTTP.
			var csv bytes.Buffer
			if err := relation.WriteCSV(&csv, rel); err != nil {
				t.Fatal(err)
			}
			ts := newTestServer(t)
			var s summary
			doJSON(t, "POST", ts.URL+"/v1/sessions",
				map[string]any{"csv": csv.String(), "strategy": tc.strategy, "seed": 1},
				http.StatusCreated, &s)
			questions := 0
			for {
				var n next
				doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/next", nil, http.StatusOK, &n)
				if n.Done {
					break
				}
				if n.Tuple == nil {
					t.Fatal("next returned neither done nor tuple")
				}
				if questions++; questions > rel.Len() {
					t.Fatal("server asked more questions than tuples")
				}
				label := "-"
				if core.Selects(goal, rel.Tuple(n.Tuple.Index)) {
					label = "+"
				}
				var lr labelResp
				doJSON(t, "POST", ts.URL+"/v1/sessions/"+s.ID+"/label",
					map[string]any{"index": n.Tuple.Index, "label": label},
					http.StatusOK, &lr)
			}
			var res struct {
				Done      bool   `json:"done"`
				Predicate string `json:"predicate"`
			}
			doJSON(t, "GET", ts.URL+"/v1/sessions/"+s.ID+"/result", nil, http.StatusOK, &res)
			if !res.Done {
				t.Error("HTTP session did not converge")
			}
			if res.Predicate != ref.Query.String() {
				t.Errorf("M_P over HTTP = %s, in-process = %s", res.Predicate, ref.Query.String())
			}
			if questions != ref.UserLabels {
				t.Errorf("questions over HTTP = %d, in-process = %d", questions, ref.UserLabels)
			}
		})
	}
}

// TestDifferentialFullProtocol is the streaming protocol differential
// the /v1 redesign is held to: for every shipped strategy, a /v1
// HTTP session and an in-process core.Session configured identically
// must agree tuple-for-tuple through the whole dialogue — create,
// next, label, periodic skips, topk rankings, and streamed-in arrival
// batches — and infer the same predicate. The HTTP layer must be pure
// plumbing over the session: any divergence is a transport bug.
func TestDifferentialFullProtocol(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			var (
				initial *relation.Relation
				batches [][]relation.Tuple
				goal    partition.P
			)
			if name == "optimal" {
				// Exponential strategy: tiny fixed instance, no streaming.
				initial, goal = workload.Travel(), workload.TravelQ2()
			} else {
				stream, err := workload.NewStream("synthetic", workload.StreamConfig{Batches: 3, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				initial, batches, goal = stream.Initial, stream.Batches, stream.Goal
			}

			// Reference: a core.Session over a copy of the initial
			// instance (the state takes ownership and grows it).
			refRel := relation.New(initial.Schema())
			initial.Each(func(i int, tu relation.Tuple) { refRel.MustAppend(tu) })
			refSt, err := core.NewState(refRel)
			if err != nil {
				t.Fatal(err)
			}
			picker, err := strategy.ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref := core.NewSession(refSt, picker)
			ref.RedeferLimit = -1

			// The same session over /v1.
			var csv bytes.Buffer
			if err := relation.WriteCSV(&csv, initial); err != nil {
				t.Fatal(err)
			}
			ts := newTestServer(t)
			var s summary
			doJSON(t, "POST", ts.URL+"/v1/sessions",
				map[string]any{"csv": csv.String(), "strategy": name, "seed": 7},
				http.StatusCreated, &s)
			base := ts.URL + "/v1/sessions/" + s.ID

			label := func(i int) string {
				if core.Selects(goal, refSt.Relation().Tuple(i)) {
					return "+"
				}
				return "-"
			}
			nextBatch := 0
			questions := 0
			for step := 0; ; step++ {
				if step > 4*refSt.Relation().Len() {
					t.Fatal("protocol did not converge")
				}
				// Drip arrival batches into both sides.
				if nextBatch < len(batches) && step%4 == 3 {
					batch := batches[nextBatch]
					rows := make([][]string, len(batch))
					for bi, tu := range batch {
						row := make([]string, len(tu))
						for c, v := range tu {
							row[c] = relation.EncodeCell(v)
						}
						rows[bi] = row
					}
					var ar appendResp
					doJSON(t, "POST", base+"/tuples", map[string]any{"rows": rows}, http.StatusOK, &ar)
					b, err := relation.BatchOf(refSt.Relation().Schema().Len(), batch)
					if err != nil {
						t.Fatal(err)
					}
					refNewly, err := ref.Append(b)
					if err != nil {
						t.Fatal(err)
					}
					if len(refNewly) != len(ar.NewlyImplied) {
						t.Fatalf("step %d: append implied %d over HTTP, %d in-process",
							step, len(ar.NewlyImplied), len(refNewly))
					}
					nextBatch++
					continue
				}
				// Compare a topk ranking every few steps (KPickers only).
				if step%5 == 4 {
					if _, isKP := picker.(core.KPicker); isKP && !ref.Done() {
						var out struct {
							Tuples []struct {
								Index int `json:"index"`
							} `json:"tuples"`
						}
						doJSON(t, "GET", base+"/topk?k=3", nil, http.StatusOK, &out)
						refTop, err := ref.TopK(3)
						if err != nil {
							t.Fatal(err)
						}
						if len(out.Tuples) != len(refTop) {
							t.Fatalf("step %d: topk %d over HTTP, %d in-process", step, len(out.Tuples), len(refTop))
						}
						for k := range refTop {
							if out.Tuples[k].Index != refTop[k] {
								t.Fatalf("step %d: topk[%d] = %d over HTTP, %d in-process",
									step, k, out.Tuples[k].Index, refTop[k])
							}
						}
					}
					continue
				}
				var n next
				doJSON(t, "GET", base+"/next", nil, http.StatusOK, &n)
				refIdx, refOK := ref.Propose()
				if n.Done != !refOK {
					t.Fatalf("step %d: done=%v over HTTP, propose ok=%v in-process", step, n.Done, refOK)
				}
				if n.Done {
					if nextBatch < len(batches) {
						continue // converged early; arrivals still pending
					}
					break
				}
				if n.Tuple.Index != refIdx {
					t.Fatalf("step %d: HTTP proposed tuple %d, session proposed %d", step, n.Tuple.Index, refIdx)
				}
				// Skip every 7th question on both sides; label otherwise.
				if questions%7 == 6 {
					var lr labelResp
					doJSON(t, "POST", base+"/label",
						map[string]any{"index": n.Tuple.Index, "label": "skip"}, http.StatusOK, &lr)
					if err := ref.Skip(refIdx); err != nil {
						t.Fatal(err)
					}
				} else {
					var lr labelResp
					doJSON(t, "POST", base+"/label",
						map[string]any{"index": n.Tuple.Index, "label": label(n.Tuple.Index)},
						http.StatusOK, &lr)
					out, err := ref.Answer(refIdx, parseLabel(label(refIdx)))
					if err != nil {
						t.Fatal(err)
					}
					if len(lr.NewlyImplied) != len(out.NewlyImplied) {
						t.Fatalf("step %d: label implied %d over HTTP, %d in-process",
							step, len(lr.NewlyImplied), len(out.NewlyImplied))
					}
				}
				questions++
			}
			if !ref.Done() {
				t.Fatal("reference session did not converge with the HTTP session")
			}
			var res struct {
				Done      bool   `json:"done"`
				Predicate string `json:"predicate"`
			}
			doJSON(t, "GET", base+"/result", nil, http.StatusOK, &res)
			if !res.Done {
				t.Error("HTTP session not done")
			}
			if res.Predicate != ref.Result().String() {
				t.Errorf("M_P over HTTP = %s, in-process = %s", res.Predicate, ref.Result().String())
			}
		})
	}
}

func parseLabel(s string) core.Label {
	if s == "+" {
		return core.Positive
	}
	return core.Negative
}
