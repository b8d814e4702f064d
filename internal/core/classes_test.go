package core

import (
	"errors"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
)

// TestClassTableGrowth registers every partition of 7 attributes (877
// signature classes) at NewState and over two Append batches: the
// class index doubles many times, the staged labels of a batch outgrow
// the stack, and the pair slab moves under the negative antichain. The
// table must still find every class at its own position, and every
// tuple must map to its own signature.
func TestClassTableGrowth(t *testing.T) {
	const n = 7
	all := partition.All(n)
	serial := 0
	rel := relation.New(relation.MustSchema(attrNames(n)...))
	rel.MustAppend(classTuples(n, 100, 300, &serial)...)
	st, err := NewState(rel)
	if err != nil {
		t.Fatal(err)
	}
	// A negative whose pair set Append must re-point after the slab moves.
	i := int(st.ClassMembers(3)[0])
	if _, err := st.Apply(i, Negative); err != nil {
		t.Fatal(err)
	}
	for _, classes := range []int{400, len(all)} {
		if _, err := st.Append(classTuples(n, classes, 2*classes, &serial)); err != nil {
			t.Fatal(err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.ClassCount(); got != len(all) {
		t.Fatalf("%d classes, want %d", got, len(all))
	}
	for c, sig := range all {
		if got := st.lookup(sig); got < 0 || !st.ClassSig(got).Equal(sig) {
			t.Fatalf("partition %d (%v) found at class %d", c, sig, got)
		}
	}
}

// TestNewStateAttributeLimit: the class table keeps a label per
// attribute in a byte, so an instance of up to 256 attributes is
// accepted and a wider one refused.
func TestNewStateAttributeLimit(t *testing.T) {
	for _, n := range []int{maxAttrs, maxAttrs + 1} {
		rel := relation.New(relation.MustSchema(attrNames(n)...))
		tu := make(relation.Tuple, n)
		for c := range tu {
			tu[c] = values.Int(int64(c % 3))
		}
		rel.MustAppend(tu)
		st, err := NewState(rel)
		switch {
		case n <= maxAttrs && err != nil:
			t.Fatalf("%d attributes: %v", n, err)
		case n <= maxAttrs:
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		case err == nil || errors.Is(err, ErrSchemaMismatch):
			t.Fatalf("%d attributes: NewState = %v, want the attribute limit", n, err)
		}
	}
}
