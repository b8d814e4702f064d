package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func TestInstanceNamesAllBuild(t *testing.T) {
	for _, name := range InstanceNames() {
		rel, goal, err := Instance(name, InstanceConfig{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel.Len() == 0 {
			t.Fatalf("%s: empty instance", name)
		}
		if goal.N() != rel.Schema().Len() {
			t.Fatalf("%s: goal over %d attrs, schema has %d", name, goal.N(), rel.Schema().Len())
		}
	}
}

func TestInstanceHonorsTuples(t *testing.T) {
	for _, name := range InstanceNames() {
		rel, _, err := Instance(name, InstanceConfig{Tuples: 500, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel.Len() != 500 {
			t.Fatalf("%s: %d tuples, want 500", name, rel.Len())
		}
	}
}

func TestInstanceUnknownName(t *testing.T) {
	if _, _, err := Instance("bogus", InstanceConfig{}); err == nil {
		t.Fatal("want error for unknown instance name")
	}
}

// TestInstanceSessionsConverge drives each instance to convergence so
// every generator is known to produce a solvable inference problem.
func TestInstanceSessionsConverge(t *testing.T) {
	for _, name := range InstanceNames() {
		rel, goal, err := Instance(name, InstanceConfig{Tuples: 200, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := core.NewState(rel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for steps := 0; !st.Done(); steps++ {
			if steps > rel.Len() {
				t.Fatalf("%s: no convergence", name)
			}
			i := st.InformativeIndices()[0]
			l := core.Negative
			if core.Selects(goal, rel.Tuple(i)) {
				l = core.Positive
			}
			if _, err := st.Apply(i, l); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestInstanceGolden pins the bytes of every named instance: the CSV
// and the goal at two seeds and two sizes hash to fixed digests, so a
// change to a generator's speed cannot change the workload the
// benchmarks run.
func TestInstanceGolden(t *testing.T) {
	want := map[string]string{
		"travel/0/1":       "3c818ab591fdb531",
		"travel/0/7":       "3c818ab591fdb531",
		"travel/5000/1":    "69d6b46d58621874",
		"travel/5000/7":    "e9b1c8f6465881f7",
		"synthetic/0/1":    "70213773e4c982ac",
		"synthetic/0/7":    "de382e694c418ef2",
		"synthetic/5000/1": "799eb2ab9e9218bf",
		"synthetic/5000/7": "dfbf06c140793fa0",
		"zipf/0/1":         "c1017cdc349bc435",
		"zipf/0/7":         "fb817c3db814a5f2",
		"zipf/5000/1":      "551823d4bc838cc0",
		"zipf/5000/7":      "a6408c9888080a2b",
		"star/0/1":         "c5292b5df3455c67",
		"star/0/7":         "ea42659c591ded59",
		"star/5000/1":      "d611775fd2e74b0b",
		"star/5000/7":      "5f38a30e5c70c2b4",
	}
	for _, name := range InstanceNames() {
		for _, tuples := range []int{0, 5000} {
			for _, seed := range []int64{1, 7} {
				rel, goal, err := Instance(name, InstanceConfig{Tuples: tuples, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := relation.WriteCSV(h, rel); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "goal %v\n", goal)
				key := fmt.Sprintf("%s/%d/%d", name, tuples, seed)
				if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[key] {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}
