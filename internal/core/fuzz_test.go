package core

import (
	"fmt"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
)

// FuzzSimulatePrunes holds both prune counts of every informative class
// to the definitional recount on states built from the input: byte 0
// picks the attribute count (1–13), byte 1 the tuple count (1–32), the
// next n bytes per tuple its signature as a restricted-growth string,
// and every remaining byte one label — the low bit the answer, the
// rest which informative tuple gets it. Any explicit label on an
// informative tuple is consistent, so every input is a valid dialogue.
// The counts are checked after every label, and at the start. The
// committed corpus covers 1, 2, 11 (the largest one-word pair set), 12
// and 13 attributes, an antichain of 0, 1 and many maximal negatives,
// and classes of several tuples (projections of weight > 1).
func FuzzSimulatePrunes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, count := 1+int(data[0])%13, 1+int(data[1])%32
		data = data[2:]
		rel := relation.New(relation.MustSchema(attrNames(n)...))
		for k := 0; k < count; k++ {
			tu := make(relation.Tuple, n)
			blocks := 0
			for i := range tu {
				b := 0
				if len(data) > 0 {
					b, data = int(data[0])%(blocks+1), data[1:]
				}
				blocks = max(blocks, b+1)
				tu[i] = values.Int(int64(k)<<8 + int64(b))
			}
			rel.MustAppend(tu)
		}
		st, err := NewState(rel)
		if err != nil {
			t.Fatal(err)
		}
		foreign := partition.Bottom(n)
		checkPrunes(t, st, "start", foreign)
		for step, b := range data {
			inf := st.InformativeIndices()
			if len(inf) == 0 {
				break
			}
			l := Negative
			if b&1 == 1 {
				l = Positive
			}
			if _, err := st.Apply(inf[int(b>>1)%len(inf)], l); err != nil {
				t.Fatalf("label %d: %v", step, err)
			}
			checkPrunes(t, st, fmt.Sprintf("label %d", step), foreign)
		}
	})
}
