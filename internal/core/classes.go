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
// never removed. Nothing in it holds a pointer per class, so a
// session's classes cost the collector a few slab headers however many
// there are.
type classTable struct {
	n     int // canonical labels per class: the attribute count
	words int // pair-set words per class: partition.PairWords(n)

	labels    []uint8  // canonical labels, n per class
	pairs     []uint64 // pair-set words, words per class
	unlabeled []int32  // unlabeled members per class
	// tuples holds every class's members, a run per class (runs): the
	// refinable-partition layout, where a block is a range of one
	// array. A run lists its class's tuple indices in ascending order.
	// NewState lays the runs out end to end, exactly sized; an Append
	// fills a run in place while it has room and moves a full one to
	// the end of the array with room for as many members again
	// (extend).
	tuples []int32
	runs   []memberRun
	// adds is Append's scratch, reused so that registering a tuple whose
	// class already exists allocates nothing: per class, the arrivals of
	// the batch extend indexes, which classifyArrivals then clears.
	adds []int32
	// slots is the open-addressing index over the classes: a slot holds
	// a class position plus one, 0 when free. A signature's probe starts
	// at the slot the high bits of its partition.HashLabels pick and
	// walks forward until it meets the class with the wanted labels or a
	// free slot. At most three quarters of the slots fill, and classes
	// are never removed, so no probe sequence is ever cut short.
	slots []int32
}

// memberRun is where a class's members sit in classTable.tuples: len
// tuple indices from at, in room for cap.
type memberRun struct{ at, len, cap int32 }

// roomFor reports whether the run takes a more members in place.
func (r memberRun) roomFor(a int32) bool { return r.len+a <= r.cap }

// grown is the room a run that must take a more members moves to: its
// members, the arrivals, and as many members again as it holds, so a
// run is copied again only after it has doubled. A class the batch
// opens gets exactly its arrivals.
func (r memberRun) grown(a int32) int32 { return 2*r.len + a }

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
// end, computing their pair sets; their runs and unlabeled counts
// start empty. Each column of the table grows once.
func (t *classTable) add(staged []uint8) {
	k, c := len(staged)/t.n, t.len()
	if k == 0 {
		return
	}
	t.labels = append(reserve(t.labels, len(staged)), staged...)
	t.pairs = grow(t.pairs, k*t.words)
	t.unlabeled = grow(t.unlabeled, k)
	t.runs = grow(t.runs, k)
	for j := range k {
		partition.FillPairs(t.sig(c+j), staged[j*t.n:(j+1)*t.n])
	}
}

// members returns the tuple indices of class c in ascending order: a
// view of the member array, capped at the run's end.
func (t *classTable) members(c int) []int32 {
	r := t.runs[c]
	return t.tuples[r.at : r.at+r.len : r.at+r.len]
}

// layout indexes every tuple of classOf as a member of its class, which
// has none yet: one counting sort lays the runs out end to end in class
// order, each sized exactly, and lists each run's members in ascending
// order. NewState's index.
func (t *classTable) layout(classOf []int32) {
	for _, c := range classOf {
		t.runs[c].cap++
	}
	at := int32(0)
	for c := range t.runs {
		r := &t.runs[c]
		r.at, at = at, at+r.cap
		t.unlabeled[c] += r.cap
	}
	t.tuples = make([]int32, len(classOf))
	for i, c := range classOf {
		r := &t.runs[c]
		t.tuples[r.at+r.len] = int32(i)
		r.len++
	}
}

// extend indexes the tuples classOf[first:], the arrivals of one
// Append, as members of their classes. A count pass finds the runs
// without room for their arrivals; each of those moves to the end of
// the array with the room grown gives it, leaving its old slots dead.
// When the array lacks the capacity for the moves, relayout copies
// every run into a new array instead, and the dead slots are gone.
// Only a relayout allocates, at most once per batch, and the fill pass
// appends each arrival to its run, so runs stay in ascending tuple
// order. Every slot copied is paid for by arrivals: a run moves only
// after it doubled (or, the first time, from NewState's exact layout),
// and a relayout copies at most five times the slots the moves since
// the last one used.
func (t *classTable) extend(classOf []int32, first int) {
	adds := grow(t.adds[:0], t.len())
	for _, c := range classOf[first:] {
		adds[c]++
	}
	moved := 0
	for c, a := range adds {
		if r := t.runs[c]; !r.roomFor(a) {
			moved += int(r.grown(a))
		}
	}
	if len(t.tuples)+moved > cap(t.tuples) {
		t.relayout(adds)
	} else {
		for c, a := range adds {
			if r := &t.runs[c]; !r.roomFor(a) {
				at := int32(len(t.tuples))
				t.tuples = append(t.tuples, t.tuples[r.at:r.at+r.len]...)
				t.tuples = t.tuples[:at+r.grown(a)]
				r.at, r.cap = at, r.grown(a)
			}
		}
	}
	for i, c := range classOf[first:] {
		r := &t.runs[c]
		t.tuples[r.at+r.len] = int32(first + i)
		r.len++
	}
	for c, a := range adds {
		t.unlabeled[c] += a
	}
	t.adds = adds
}

// relayout copies every run into a new member array, end to end in
// class order, with capacity for a quarter as many slots again: a run
// without room for its adds gets the room grown gives it, the others
// keep theirs.
func (t *classTable) relayout(adds []int32) {
	size := 0
	for c, r := range t.runs {
		if !r.roomFor(adds[c]) {
			t.runs[c].cap = r.grown(adds[c])
		}
		size += int(t.runs[c].cap)
	}
	tuples := make([]int32, size, size+size/4)
	at := int32(0)
	for c := range t.runs {
		r := &t.runs[c]
		copy(tuples[at:], t.tuples[r.at:r.at+r.len])
		r.at, at = at, at+r.cap
	}
	t.tuples = tuples
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
	if len(t.labels) != k*t.n || len(t.pairs) != k*t.words || len(t.runs) != k {
		return fmt.Errorf("core: class table columns hold %d labels, %d pair words and %d member runs for %d classes",
			len(t.labels), len(t.pairs), len(t.runs), k)
	}
	if err := t.checkRuns(); err != nil {
		return err
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

// checkRuns verifies the member array: every run lies inside it, holds
// at most its room and its members in ascending order, and no two runs
// overlap.
func (t *classTable) checkRuns() error {
	byAt := make([]int, len(t.runs))
	for c := range byAt {
		byAt[c] = c
	}
	slices.SortFunc(byAt, func(a, b int) int { return int(t.runs[a].at) - int(t.runs[b].at) })
	end := int32(0)
	for _, c := range byAt {
		r := t.runs[c]
		if r.at < end || r.len < 0 || r.len > r.cap || int(r.at+r.cap) > len(t.tuples) {
			return fmt.Errorf("core: class %d run %+v overlaps the run ending at %d or leaves the %d-slot member array", c, r, end, len(t.tuples))
		}
		if m := t.members(c); !slices.IsSorted(m) || len(slices.Compact(slices.Clone(m))) != len(m) {
			return fmt.Errorf("core: class %d members %v are not ascending", c, m)
		}
		end = r.at + r.cap
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
