package main

import (
	"testing"
	"time"

	"repro/internal/wire"
)

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 60}}, 80},
		{"overlapping counted once", []interval{{10, 20}, {15, 30}, {50, 60}}, 70},
		{"unsorted", []interval{{50, 60}, {10, 20}}, 80},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to the parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside the parent", []interval{{200, 300}}, 100},
		{"covering the parent", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLink(t *testing.T) {
	tr := &tracer{}
	add := func(name, node, sid string, start, end int64) int {
		tr.add(span{name: name, node: node, sid: sid, start: start, end: end})
		return len(tr.spans) - 1
	}
	turn := add("client.turn", "n1", "s1", 0, 100)
	step := add("server.step", "n1", "s1", 10, 90)
	app1 := add("store.append", "n1", "s1", 20, 30)
	app2 := add("store.append", "n1", "s1", 40, 50)
	// Replication of the same session on the follower overlaps the
	// owner's turn in time but must not nest under it.
	apply := add("cluster.apply_event", "n2", "s1", 15, 25)
	// Another session's request in the same interval.
	other := add("server.step", "n1", "s2", 12, 80)
	next := add("client.turn", "n1", "s1", 110, 200)
	nextStep := add("server.step", "n1", "s1", 120, 190)
	// A store call outside any request (a background snapshot).
	bg := add("store.snapshot", "n1", "s1", 95, 105)
	tr.link()
	want := map[int]int{
		turn: -1, step: turn, app1: step, app2: step, apply: -1,
		other: -1, next: -1, nextStep: next, bg: -1,
	}
	for i, p := range want {
		if got := tr.spans[i].parent; got != p {
			t.Errorf("span %d (%s): parent %d, want %d", i, tr.spans[i].name, got, p)
		}
	}
	kids := tr.children()
	if len(kids[step]) != 2 || len(kids[turn]) != 1 {
		t.Errorf("children: step has %d, turn has %d; want 2 and 1", len(kids[step]), len(kids[turn]))
	}
	var ivs []interval
	for _, k := range kids[step] {
		ivs = append(ivs, interval{tr.spans[k].start, tr.spans[k].end})
	}
	if got := selfTime(interval{10, 90}, ivs); got != 60 {
		t.Errorf("server.step self time = %d, want 60", got)
	}
}

type fakeBackend struct{ recorded int }

func (*fakeBackend) WireCreate(string, string, int64) (string, error)            { return "s1", nil }
func (*fakeBackend) WireStep(string, []wire.Answer, int, *wire.StepResult) error { return nil }
func (*fakeBackend) WireAppend(string, [][]string) (wire.AppendResult, error) {
	return wire.AppendResult{}, nil
}
func (*fakeBackend) WireResult(string) (wire.ResultData, error) { return wire.ResultData{}, nil }
func (*fakeBackend) WireDelete(string) error                    { return nil }

type recordingBackend struct{ fakeBackend }

func (r *recordingBackend) RecordWireOp(string, time.Duration, bool) { r.recorded++ }

// The wrapper must offer wire.OpRecorder exactly when the backend does,
// and forward to it.
func TestTraceBackendKeepsOpRecorder(t *testing.T) {
	tr := newTracer()
	if _, ok := traceBackend(&fakeBackend{}, tr, "n1").(wire.OpRecorder); ok {
		t.Errorf("wrapper of a backend without OpRecorder offers one")
	}
	rb := &recordingBackend{}
	wrapped := traceBackend(rb, tr, "n1")
	rec, ok := wrapped.(wire.OpRecorder)
	if !ok {
		t.Fatalf("wrapper dropped the backend's OpRecorder")
	}
	rec.RecordWireOp("WIRE step", time.Millisecond, false)
	if rb.recorded != 1 {
		t.Errorf("RecordWireOp reached the backend %d times, want 1", rb.recorded)
	}
	if id, _ := wrapped.WireCreate("csv", "", 0); id != "s1" || len(tr.spans) != 1 || tr.spans[0].sid != "s1" {
		t.Errorf("create span = %+v, want one span for s1", tr.spans)
	}
}
