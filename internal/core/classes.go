package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/partition"
)

// maxAttrs bounds an instance's attribute count: the class table keeps
// one canonical label per attribute in a byte, and a canonical label
// is below the attribute count.
const maxAttrs = 256

// classTable is the signature-class registry of one State (DESIGN.md
// §6): every class the instance holds, in one flat table indexed by
// class position. Positions are fixed at registration and classes are
// never removed. Apart from the member lists, nothing in it holds a
// pointer per class, so a session's classes cost the collector a few
// slab headers however many there are.
type classTable struct {
	n     int // canonical labels per class: the attribute count
	words int // pair-set words per class: partition.PairWords(n)

	labels    []uint8   // canonical labels, n per class
	pairs     []uint64  // pair-set words, words per class
	members   [][]int32 // tuple indices per class, in first-occurrence order
	unlabeled []int32   // unlabeled members per class
	// slots is the open-addressing index over the classes: a slot holds
	// a class position plus one, 0 when free. A signature's probe starts
	// at the slot the high bits of its partition.HashLabels pick and
	// walks forward until it meets the class with the wanted labels or a
	// free slot. At most three quarters of the slots fill, and classes
	// are never removed, so no probe sequence is ever cut short.
	slots []int32
}

func newClassTable(n int) classTable {
	return classTable{n: n, words: partition.PairWords(n)}
}

// len returns the number of registered classes.
func (t *classTable) len() int { return len(t.unlabeled) }

// sig returns the pair set of class c: a view of the pair slab, which
// the lattice and the projection build read in place.
func (t *classTable) sig(c int) partition.PairSet {
	return t.pairs[c*t.words : (c+1)*t.words : (c+1)*t.words]
}

// labelsOf returns the canonical labels of class c. A registration
// indexes the classes it opens before it adds them to the table:
// staged holds their labels end to end, so the positions from len()
// on read from it.
func (t *classTable) labelsOf(c int, staged []uint8) []uint8 {
	if k := c - t.len(); k >= 0 {
		return staged[k*t.n : (k+1)*t.n]
	}
	return t.labels[c*t.n : (c+1)*t.n]
}

// home returns the slot where the probe for hash h starts.
func (t *classTable) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(len(t.slots)))))
}

// find returns the class whose canonical labels are sig, which hashes
// to h, or -1.
func (t *classTable) find(sig []uint8, h uint64, staged []uint8) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for s := t.home(h); ; s = (s + 1) & mask {
		c := int(t.slots[s]) - 1
		if c < 0 || string(t.labelsOf(c, staged)) == string(sig) {
			return c
		}
	}
}

// index enters class c, whose labels hash to h, into the slots; the
// classes below c must be in already. The slots double first when c
// would fill more than three quarters of them.
func (t *classTable) index(c int, h uint64, staged []uint8) {
	if 4*(c+1) > 3*len(t.slots) {
		t.slots = make([]int32, max(16, 2*len(t.slots)))
		for k := range c {
			t.place(k, partition.HashLabels(t.labelsOf(k, staged)))
		}
	}
	t.place(c, h)
}

func (t *classTable) place(c int, h uint64) {
	mask := len(t.slots) - 1
	s := t.home(h)
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = int32(c + 1)
}

// add appends the classes whose canonical labels staged holds, end to
// end, computing their pair sets; their member lists and unlabeled
// counts start empty. Each column of the table grows once.
func (t *classTable) add(staged []uint8) {
	k, c := len(staged)/t.n, t.len()
	if k == 0 {
		return
	}
	t.labels = append(reserve(t.labels, len(staged)), staged...)
	t.pairs = grow(t.pairs, k*t.words)
	t.unlabeled = grow(t.unlabeled, k)
	t.members = grow(t.members, k)
	for j := range k {
		partition.FillPairs(t.sig(c+j), staged[j*t.n:(j+1)*t.n])
	}
}

// grow extends s by n zero elements, growing it as reserve does.
func grow[T any](s []T, n int) []T {
	s = reserve(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// check verifies the table against itself: the columns agree on the
// class count, every class's labels are canonical with a pair set
// derived from them, and the index finds every class at its own
// position, so no two classes share a signature.
func (t *classTable) check() error {
	k := t.len()
	if len(t.labels) != k*t.n || len(t.pairs) != k*t.words || len(t.members) != k {
		return fmt.Errorf("core: class table columns hold %d labels, %d pair words and %d member lists for %d classes",
			len(t.labels), len(t.pairs), len(t.members), k)
	}
	used := 0
	for _, s := range t.slots {
		if s != 0 {
			used++
		}
	}
	if used != k || 4*k > 3*len(t.slots) && k > 0 {
		return fmt.Errorf("core: class index fills %d of %d slots for %d classes", used, len(t.slots), k)
	}
	want := make(partition.PairSet, t.words)
	for c := range k {
		labels := t.labelsOf(c, nil)
		if !canonical(labels) {
			return fmt.Errorf("core: class %d labels %v are not canonical", c, labels)
		}
		clear(want)
		partition.FillPairs(want, labels)
		if !slices.Equal(t.sig(c), want) {
			return fmt.Errorf("core: class %d pair set %v, its labels %v give %v", c, t.sig(c), labels, want)
		}
		if got := t.find(labels, partition.HashLabels(labels), nil); got != c {
			return fmt.Errorf("core: class index finds class %d for the labels %v of class %d", got, labels, c)
		}
	}
	return nil
}

// canonical reports whether labels are in restricted-growth form.
func canonical(labels []uint8) bool {
	blocks := 0
	for _, l := range labels {
		if int(l) > blocks {
			return false
		}
		if int(l) == blocks {
			blocks++
		}
	}
	return true
}
