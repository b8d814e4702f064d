package session_test

import (
	"bytes"
	"testing"

	"repro/internal/partition"
	"repro/internal/session"
)

// FuzzLoadSession holds LoadBytes — the decoder of every
// /v1/sessions/import body and snapshot body — to its contract on
// arbitrary input: it returns an error, or a state whose Save →
// LoadBytes round trip reproduces every cell exactly, every label, M_P
// and the negative antichain. It must never panic. The committed corpus
// holds a v1 file, a v2 file with appended rows and every cell kind, a
// bad tag, base_rows out of range and a duplicate label.
func FuzzLoadSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, meta, err := session.LoadBytes(data)
		if err != nil {
			return
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("loaded state: %v", err)
		}
		var buf bytes.Buffer
		if err := session.Save(&buf, st, meta); err != nil {
			t.Fatalf("saving a loaded state: %v", err)
		}
		st2, _, err := session.LoadBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("saved state does not reload: %v\n%s", err, buf.Bytes())
		}
		rel, rel2 := st.Relation(), st2.Relation()
		if rel2.Len() != rel.Len() || st2.BaseLen() != st.BaseLen() {
			t.Fatalf("reload has %d tuples, %d at creation; want %d, %d", rel2.Len(), st2.BaseLen(), rel.Len(), st.BaseLen())
		}
		for i := 0; i < rel.Len(); i++ {
			for c := 0; c < rel.Schema().Len(); c++ {
				if got, want := rel2.Cell(i, c), rel.Cell(i, c); !exactCell(got, want) {
					t.Fatalf("tuple %d column %d reloads as %#v, want %#v", i, c, got, want)
				}
			}
			if st2.Label(i) != st.Label(i) {
				t.Fatalf("tuple %d reloads labeled %v, want %v", i, st2.Label(i), st.Label(i))
			}
		}
		if !st2.MP().Equal(st.MP()) {
			t.Fatalf("M_P = %v, want %v", st2.MP(), st.MP())
		}
		if negs, want := st2.Negatives(), st.Negatives(); !sameSet(negs, want) {
			t.Fatalf("negatives = %v, want %v", negs, want)
		}
	})
}

// sameSet reports whether a and b hold the same partitions, in any
// order.
func sameSet(a, b []partition.P) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range a {
		found := false
		for _, q := range b {
			if p.Equal(q) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
