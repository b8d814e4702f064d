package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/values"
)

// ErrInconsistent reports a label that contradicts the labels given so
// far: no join predicate is consistent with the combined set. With a
// truthful user this cannot happen; it surfaces noisy (crowd) labels.
var ErrInconsistent = errors.New("core: label is inconsistent with previous labels")

// ErrAlreadyLabeled reports an explicit label for a tuple the user
// already labeled explicitly.
var ErrAlreadyLabeled = errors.New("core: tuple already labeled explicitly")

// State holds the instance and everything the engine knows: explicit
// and implied labels, the most specific consistent hypothesis M_P, and
// the maximal antichain of negative signatures.
//
// Tuples are grouped into signature classes: the tuples sharing one Eq
// signature. Every hypothesis treats such tuples identically, so
// informativeness, implied labels, and strategy scores are computed per
// class, not per tuple (the signature-grouping optimization benched in
// E7). A class is named by its position, 0 to ClassCount()-1, fixed at
// registration.
type State struct {
	rel    *relation.Relation
	n      int // number of attributes
	labels []Label

	mp partition.P // meet of positive signatures; Top initially
	// negs holds the classes whose signatures are the ≤-maximal negative
	// signatures (an antichain): every maximal negative is the
	// signature of a tuple labeled negative, so a class position names
	// it, and its pair set stays in the class table.
	negs []int32

	cls     classTable // the signature classes (classes.go)
	classOf []int32    // tuple index -> class position
	counts  [5]int

	// implied lists the tuples the last Apply or Append newly implied:
	// Apply and Append return a copy of it, AppendBatch and
	// Session.Answer hand it out as a view.
	implied []int

	// Incrementally maintained scoring state (see lattice.go): the
	// positions of classes that still hold informative tuples (always
	// sorted) and the pair-bitset view of the hypothesis. With the class
	// table's unlabeled counts and pair sets they let implied checks and
	// lookahead simulations run without scanning tuples or allocating
	// partitions.
	infClasses []int32
	lat        lattice

	base             int // instance size at NewState; see BaseLen
	version          int // bumped on every successful Apply or Append; see Version
	mpVersion        int // bumped only when Apply strictly refines M_P
	structureVersion int // bumped on every successful Append; see StructureVersion
}

// NewState indexes a denormalized instance for inference. The relation
// must have at least one attribute; an empty relation converges
// immediately (until tuples arrive via Append). The state takes
// ownership of the relation: it grows under Append, so callers must
// not mutate it or share it across states.
func NewState(rel *relation.Relation) (*State, error) {
	n := rel.Schema().Len()
	if n < 1 {
		return nil, fmt.Errorf("core: instance needs at least one attribute")
	}
	if n > maxAttrs {
		return nil, fmt.Errorf("core: instance has %d attributes, at most %d are supported", n, maxAttrs)
	}
	st := &State{
		rel:  rel,
		n:    n,
		mp:   partition.Top(n).Cached(),
		cls:  newClassTable(n),
		base: rel.Len(),
	}
	st.labels = make([]Label, 0, rel.Len())
	st.classOf = make([]int32, 0, rel.Len())
	rel.EachBatch(st.register)
	st.cls.layout(st.classOf)
	st.infClasses = make([]int32, st.cls.len())
	for c := range st.infClasses {
		st.infClasses[c] = int32(c)
	}
	st.lat.mp = st.mp.PairSet()
	st.propagate()
	return st, nil
}

// Append ingests a batch of new tuples into a live session: the
// streaming counterpart of NewState's build-once registration. Each
// arrival is registered (new signature classes are created, existing
// ones extended), the lattice grows by the new classes, and every
// arrival is immediately classified against the current M_P and
// negative antichain, so implied labels propagate to new tuples the
// moment they land. It returns the indices of appended tuples whose
// labels were implied on arrival. A batch with a wrong-arity tuple is
// rejected whole, leaving the state untouched.
//
// Append bumps both Version and StructureVersion: strategy caches
// keyed on (Version, MPVersion, StructureVersion) invalidate exactly
// when the class set or the class sizes change. It must not run
// concurrently with any other State method (the HTTP layer serializes
// it under the session write lock).
func (st *State) Append(tuples []relation.Tuple) (newlyImplied []int, err error) {
	for k, t := range tuples {
		if len(t) != st.n {
			return nil, fmt.Errorf("%w: appended tuple %d has arity %d, want %d", ErrSchemaMismatch, k, len(t), st.n)
		}
	}
	b, _ := relation.BatchOf(st.n, tuples) // arity checked above
	if _, err := st.AppendBatch(b); err != nil {
		return nil, err
	}
	return st.impliedCopy(), nil
}

// AppendBatch is Append taking ownership of a parsed batch: the
// instance adopts b as it is (Relation.AppendBatch), so the caller
// must not use b afterwards. It is the ingest path of a freshly parsed
// batch that nothing else refers to. The returned indices are a view
// of State-owned scratch, valid until the next Apply or Append; the
// caller copies what it keeps.
func (st *State) AppendBatch(b *relation.Batch) (newlyImplied []int, err error) {
	st.implied = st.implied[:0]
	if b.Len() == 0 {
		return nil, nil
	}
	if b.Arity() != st.n {
		return nil, fmt.Errorf("%w: appended batch has arity %d, want %d", ErrSchemaMismatch, b.Arity(), st.n)
	}
	prevClasses := st.cls.len()
	firstNew := len(st.labels)
	// The per-tuple arrays grow once for the whole batch; the relation
	// stores the batch as a chunk of its own. Arity is checked above.
	_ = st.rel.AppendBatch(b)
	st.labels = reserve(st.labels, b.Len())
	st.classOf = reserve(st.classOf, b.Len())
	st.register(firstNew, b)
	st.cls.extend(st.classOf, firstNew)
	st.syncNegatives() // the pair slab may have moved
	st.classifyArrivals(firstNew, prevClasses)
	st.version++
	st.structureVersion++
	return st.implied, nil
}

// impliedCopy returns a fresh copy of the tuples the last Apply or
// Append implied, nil when there are none: the public API's result.
func (st *State) impliedCopy() []int {
	if len(st.implied) == 0 {
		return nil
	}
	return slices.Clone(st.implied)
}

// classifyArrivals labels the tuples appended at or after index
// firstNew against the current hypothesis, listing the newly implied
// ones in st.implied, and repairs the sorted informative-class index.
// Classes at positions >= prevClasses are new; classes below it
// existed before the batch. An existing class that was informative
// stays informative (the hypothesis did not move), so only new and
// previously-settled classes are classified.
func (st *State) classifyArrivals(firstNew, prevClasses int) {
	var reenterBuf [64]int32
	reenter := reenterBuf[:0] // sorted class positions to add to infClasses
	// The class table's arrival counts (classTable.extend) mark the
	// classes the batch touched; each is cleared once its class is
	// classified.
	adds := st.cls.adds
	for i := firstNew; i < len(st.labels); i++ {
		c := st.classOf[i]
		if adds[c] == 0 {
			continue
		}
		adds[c] = 0
		if int(c) < prevClasses && st.inInformativeIndex(c) {
			continue // informative class stays informative; counts already updated
		}
		implied := st.impliedClass(int(c))
		if implied == Unlabeled {
			reenter = append(reenter, c)
			continue
		}
		st.settle(int(c), implied)
	}
	if len(reenter) > 0 {
		slices.Sort(reenter)
		st.infClasses = mergeSorted(st.infClasses, reenter)
	}
}

// settle gives the unlabeled members of class c the implied label l,
// listing them in st.implied.
func (st *State) settle(c int, l Label) {
	for _, i := range st.cls.members(c) {
		if st.labels[i] == Unlabeled {
			st.setLabel(int(i), l)
			st.implied = append(st.implied, int(i))
		}
	}
}

// inInformativeIndex reports membership of class c in the sorted
// informative-class index.
func (st *State) inInformativeIndex(c int32) bool {
	_, ok := slices.BinarySearch(st.infClasses, c)
	return ok
}

// mergeSorted merges two sorted, disjoint position lists in place of a.
func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// reserve makes room in s for n more elements. When s must grow, its
// capacity at least doubles, so a relation streamed in batch by batch
// copies each element O(1) times. (make and copy rather than
// slices.Grow: under the race detector Grow allocates twice.)
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), len(s)+max(n, len(s)))
	copy(grown, s)
	return grown
}

// register indexes b, the tuples at index first and after, already at
// the tail of st.rel — each stored chunk of the instance at NewState,
// one batch at Append. Each tuple gets its Eq signature's class, a new
// one when no registered class has that signature, and starts
// Unlabeled; classification against the hypothesis is the caller's
// job (propagate at NewState, classifyArrivals at Append), and so is
// listing the tuples as their classes' members (classTable.layout at
// NewState, classTable.extend at Append).
//
// The batch is registered in two passes. The first classifies every
// tuple, computing its signature into a stack buffer and looking it up
// in the class index, and stages the labels of the batch's new classes
// end to end — on the stack while they fit, so a session keeps no such
// scratch. The second, knowing the exact number of new classes, grows
// each column of the class table once: a handful of allocations per
// batch, however many classes it opens, and none for a batch that
// opens none.
func (st *State) register(first int, b *relation.Batch) {
	t := &st.cls
	prev, n := t.len(), st.n
	var stack [1024]uint8
	staged := stack[:0]
	var sigStack [maxAttrs]uint8
	sig := sigStack[:n]
	for r := range b.Len() {
		eqLabels(sig, b, r)
		h := partition.HashLabels(sig)
		c := t.find(sig, h, staged)
		if c < 0 {
			c = prev + len(staged)/n
			staged = append(staged, sig...)
			t.index(c, h, staged)
		}
		st.classOf = append(st.classOf, int32(c))
		st.labels = append(st.labels, Unlabeled)
	}
	st.counts[Unlabeled] += len(st.labels) - first
	t.add(staged)
}

// lookup returns the position of the class whose signature is sig, a
// partition of the state's attributes, or -1.
func (st *State) lookup(sig partition.P) int {
	var buf [maxAttrs]uint8
	labels := buf[:st.n]
	for i := range labels {
		labels[i] = uint8(sig.BlockOf(i))
	}
	return st.cls.find(labels, partition.HashLabels(labels), nil)
}

// eqLabels writes the canonical block labels of the Eq signature of
// row r of b into labels (cells i and j share a block iff they are
// values.Equal): the partition.EqualLabels loop over the batch's
// columns. Two cells of one kind among bool, int and string are equal
// exactly when their payload words are (a batch shares string slots
// within a row); two numeric cells otherwise — a float against a float
// or an int — are decided by values.Equal on the materialised cells;
// every other pair (NULL, or kinds that never compare equal) differs.
func eqLabels(labels []uint8, b *relation.Batch, r int) {
	kinds, words := b.Row(r)
	blocks := 0
	for i := range labels {
		ki, wi := kinds[i], words[i]
		l := -1
		for j := 0; j < i; j++ {
			var eq bool
			switch kj := kinds[j]; {
			case kj == ki && 1<<ki&wordKinds != 0:
				eq = words[j] == wi
			case 1<<ki&numericKinds != 0 && 1<<kj&numericKinds != 0:
				eq = b.Cell(r, j).Equal(b.Cell(r, i))
			}
			if eq {
				l = int(labels[j])
				break
			}
		}
		if l < 0 {
			l = blocks
			blocks++
		}
		labels[i] = uint8(l)
	}
}

// The kind sets of eqLabels, bit k for kind k: kinds whose cells of
// one kind are equal exactly when their payload words are, and the
// numeric kinds, which compare across kinds.
const (
	wordKinds    = 1<<values.KindBool | 1<<values.KindInt | 1<<values.KindString
	numericKinds = 1<<values.KindInt | 1<<values.KindFloat
)

// Relation returns the instance being labeled.
func (st *State) Relation() *relation.Relation { return st.rel }

// AttrCount returns the number of attributes.
func (st *State) AttrCount() int { return st.n }

// Sig returns the Eq signature of tuple i: ClassSig of its class.
func (st *State) Sig(i int) partition.P { return st.ClassSig(int(st.classOf[i])) }

// Label returns the current label of tuple i.
func (st *State) Label(i int) Label { return st.labels[i] }

// MP returns M_P, the meet of the positive signatures: the most
// specific hypothesis consistent with the positive examples, and the
// canonical inferred query at convergence.
func (st *State) MP() partition.P { return st.mp }

// Negatives returns the ≤-maximal negative signatures (the sufficient
// statistic for the negative examples), built afresh on every call.
func (st *State) Negatives() []partition.P {
	out := make([]partition.P, len(st.negs))
	for k, c := range st.negs {
		out[k] = st.ClassSig(int(c))
	}
	return out
}

// ClassCount returns the number of signature classes of the instance.
func (st *State) ClassCount() int { return st.cls.len() }

// ClassOf returns the position of the signature class containing tuple
// i.
func (st *State) ClassOf(i int) int { return int(st.classOf[i]) }

// ClassMembers returns the tuple indices of class c in first-occurrence
// order. The caller must not mutate them; an Append may move them.
func (st *State) ClassMembers(c int) []int32 { return st.cls.members(c) }

// ClassSig returns the Eq signature of class c, built afresh from the
// class table (with a lazy cache, see partition.P.Cached) on every
// call: the form explanations, reference strategies and tests read.
// The hot paths ask their lattice questions of the class's pair set
// instead.
func (st *State) ClassSig(c int) partition.P {
	return partition.FromCanonical(st.cls.labelsOf(c, nil)).Cached()
}

// ClassPairs returns the pair set of class c's signature, a view of the
// class table the caller must not mutate.
func (st *State) ClassPairs(c int) partition.PairSet { return st.cls.sig(c) }

// ImpliedLabel returns the label forced on the given signature by the
// current examples, or Unlabeled if the signature is informative.
func (st *State) ImpliedLabel(sig partition.P) Label {
	if sig.N() == st.n {
		return st.lat.implied(sig.PairSet())
	}
	// A foreign size takes the definitional path, which fails on it as
	// it always has.
	return st.Hypo().ImpliedLabel(sig)
}

// Informative reports whether tuple i is informative: unlabeled and
// with consistent hypotheses disagreeing about it.
func (st *State) Informative(i int) bool {
	return st.labels[i] == Unlabeled
}

// InformativeClasses returns the positions of the signature classes
// that still contain informative tuples, ascending.
func (st *State) InformativeClasses() []int32 {
	return st.AppendInformativeClasses(nil)
}

// AppendInformativeClasses appends the positions of the informative
// signature classes to buf, ascending, and returns the extended slice.
// Hot loops pass a reused buffer (buf[:0]) so per-pick selection
// allocates nothing.
func (st *State) AppendInformativeClasses(buf []int32) []int32 {
	return append(buf, st.infClasses...)
}

// InformativeGroupCount returns the number of signature classes that
// still contain informative tuples — the natural candidate-list size
// for top-k ranking (one proposal per class is ever useful).
func (st *State) InformativeGroupCount() int { return len(st.infClasses) }

// InformativeIndices returns the informative tuple indices in order.
func (st *State) InformativeIndices() []int {
	return st.AppendInformativeIndices(nil)
}

// AppendInformativeIndices appends the informative tuple indices in
// ascending order to buf and returns the extended slice.
func (st *State) AppendInformativeIndices(buf []int) []int {
	for i, l := range st.labels {
		if l == Unlabeled {
			buf = append(buf, i)
		}
	}
	return buf
}

// GroupUnlabeled returns the number of unlabeled tuples in class c.
func (st *State) GroupUnlabeled(c int) int { return int(st.cls.unlabeled[c]) }

// InformativeCount returns the number of informative tuples.
func (st *State) InformativeCount() int { return st.counts[Unlabeled] }

// Done reports convergence: no informative tuple remains, so all
// consistent hypotheses are instance-equivalent.
func (st *State) Done() bool { return st.counts[Unlabeled] == 0 }

// Result returns the canonical inferred query M_P. It is meaningful at
// any point as the current best hypothesis and is the paper's output
// at convergence.
func (st *State) Result() partition.P { return st.mp }

// IsConsistent reports whether at least one hypothesis is consistent
// with all labels. The engine maintains this invariant by rejecting
// contradicting labels, so it returns true unless internal state was
// corrupted.
func (st *State) IsConsistent() bool {
	for _, neg := range st.lat.negs {
		if st.lat.mp.SubsetOf(neg) {
			return false
		}
	}
	return true
}

// Apply records an explicit user label (Positive or Negative) for
// tuple i, updates the sufficient statistics, and propagates implied
// labels. It returns the tuples newly marked as implied. Labels that
// contradict previous ones are rejected with ErrInconsistent and leave
// the state unchanged; re-labeling an explicitly labeled tuple returns
// ErrAlreadyLabeled. Labeling an uninformative tuple consistently is
// allowed (the user may do so in interaction modes 1–2) and simply
// converts its implied label to an explicit one.
func (st *State) Apply(i int, l Label) (newlyImplied []int, err error) {
	if err := st.apply(i, l); err != nil {
		return nil, err
	}
	return st.impliedCopy(), nil
}

// apply is Apply listing the newly implied tuples in st.implied
// instead of returning a copy of them.
func (st *State) apply(i int, l Label) error {
	if i < 0 || i >= len(st.labels) {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrOutOfRange, i, len(st.labels))
	}
	if !l.IsExplicit() {
		return fmt.Errorf("core: Apply requires an explicit label, got %v", l)
	}
	if st.labels[i].IsExplicit() {
		return fmt.Errorf("%w: tuple %d is %v", ErrAlreadyLabeled, i, st.labels[i])
	}
	// Contradiction checks (state not yet mutated), on the class's pair
	// set. The state is consistent, so at most one implication holds.
	c := int(st.classOf[i])
	implied := st.impliedClass(c)
	if l == Positive && implied == ImpliedNegative {
		return fmt.Errorf("%w: tuple %d labeled +, but no consistent query selects it", ErrInconsistent, i)
	}
	if l == Negative && implied == ImpliedPositive {
		return fmt.Errorf("%w: tuple %d labeled -, but every consistent query selects it", ErrInconsistent, i)
	}

	st.setLabel(i, l)
	switch l {
	case Positive:
		// M_P moves only when the new positive's signature does not
		// already refine above it; leaving it untouched keeps the
		// M_P-conditioned strategy scores (MPVersion) valid.
		if implied != ImpliedPositive {
			st.mp = st.mp.Meet(partition.FromCanonical(st.cls.labelsOf(c, nil))).Cached()
			st.mpVersion++
			st.lat.mp = st.mp.PairSet()
		}
	case Negative:
		st.addNegative(c)
	}
	st.version++
	st.propagate()
	return nil
}

// Version returns a counter bumped by every successful Apply or
// Append. Strategies use it to cache per-state computations safely.
func (st *State) Version() int { return st.version }

// MPVersion returns a counter bumped only when Apply strictly refines
// M_P. Scores that depend solely on M_P and a fixed signature (the
// local strategies) stay valid across Applies that leave it unchanged
// — in particular across every negative label.
func (st *State) MPVersion() int { return st.mpVersion }

// StructureVersion returns a counter bumped by every successful
// Append: it changes exactly when the signature-class structure (the
// class set, class sizes, or per-class unlabeled populations) can have
// changed without a label being applied. Caches conditioned on the
// class structure — strategy score buffers, rankings — key on it
// alongside Version and MPVersion.
func (st *State) StructureVersion() int { return st.structureVersion }

// BaseLen returns the instance size at NewState — the tuples present
// before any Append.
func (st *State) BaseLen() int { return st.base }

// Appended returns how many tuples arrived via Append after creation.
func (st *State) Appended() int { return st.rel.Len() - st.base }

// addNegative inserts the signature of class c into the maximal
// antichain of negative signatures: a signature refined by an existing
// one is redundant (Q ≰ coarser implies Q ≰ finer), so only ≤-maximal
// elements are kept.
func (st *State) addNegative(c int) {
	sig := st.cls.sig(c)
	for _, neg := range st.lat.negs {
		if sig.SubsetOf(neg) {
			return // dominated: the new constraint is already implied
		}
	}
	kept := st.negs[:0]
	for k, neg := range st.negs {
		if !st.lat.negs[k].SubsetOf(sig) {
			kept = append(kept, neg)
		}
	}
	st.negs = append(kept, int32(c))
	st.syncNegatives()
}

// syncNegatives points the lattice's negative pair sets at the class
// table's pair slab.
func (st *State) syncNegatives() {
	st.lat.negs = st.lat.negs[:0]
	for _, c := range st.negs {
		st.lat.negs = append(st.lat.negs, st.cls.sig(int(c)))
	}
}

// propagate reclassifies the classes that might have changed status —
// exactly the ones still holding unlabeled tuples — and lists the
// tuple indices newly marked implied in st.implied. It also compacts
// the informative-class index in place, so convergence checks and
// candidate listing stay O(informative classes), never O(tuples).
func (st *State) propagate() {
	st.implied = st.implied[:0]
	kept := st.infClasses[:0]
	for _, c := range st.infClasses {
		if st.cls.unlabeled[c] == 0 {
			continue // settled by the explicit label this round
		}
		implied := st.impliedClass(int(c))
		if implied == Unlabeled {
			kept = append(kept, c)
			continue
		}
		st.settle(int(c), implied)
	}
	st.infClasses = kept
}

func (st *State) setLabel(i int, l Label) {
	old := st.labels[i]
	st.counts[old]--
	st.labels[i] = l
	st.counts[l]++
	if old == Unlabeled {
		st.cls.unlabeled[st.classOf[i]]--
	}
}

// ConsistentQueries enumerates every hypothesis consistent with the
// current labels, up to the given limit (0 = no limit). The search
// space is the refinement cone below M_P, so the cost is the product
// of Bell numbers of M_P's block sizes — use only on small instances
// (tests, the optimal strategy, and demo statistics).
func (st *State) ConsistentQueries(limit int) []partition.P {
	var out []partition.P
	negs := st.Negatives()
	partition.EnumerateRefinementsOf(st.mp, func(q partition.P) bool {
		for _, neg := range negs {
			if q.LessEq(neg) {
				return true // inconsistent with neg; keep enumerating
			}
		}
		out = append(out, q)
		return limit == 0 || len(out) < limit
	})
	return out
}

// CountConsistent returns the number of consistent hypotheses, with
// the same cost caveat as ConsistentQueries.
func (st *State) CountConsistent() int {
	n := 0
	negs := st.Negatives()
	partition.EnumerateRefinementsOf(st.mp, func(q partition.P) bool {
		consistent := true
		for _, neg := range negs {
			if q.LessEq(neg) {
				consistent = false
				break
			}
		}
		if consistent {
			n++
		}
		return true
	})
	return n
}

// Progress summarizes labeling progress for the demo UI statistics
// ("total number and relative percentage of tuples explicitly labeled
// or deemed uninformative").
type Progress struct {
	Total       int
	Explicit    int
	Implied     int
	Informative int
}

// Progress returns the current labeling progress.
func (st *State) Progress() Progress {
	return Progress{
		Total:       len(st.labels),
		Explicit:    st.counts[Positive] + st.counts[Negative],
		Implied:     st.counts[ImpliedPositive] + st.counts[ImpliedNegative],
		Informative: st.counts[Unlabeled],
	}
}

// String renders progress as a one-line summary.
func (p Progress) String() string {
	var buf [96]byte
	return string(p.AppendString(buf[:0]))
}

// AppendString appends the String summary to dst and returns the
// extended slice: "3/12 labeled (25.0%), 5 implied (41.7%), 4
// informative remain", percentages to one decimal.
func (p Progress) AppendString(dst []byte) []byte {
	pct := func(k int) float64 {
		if p.Total == 0 {
			return 0
		}
		return 100 * float64(k) / float64(p.Total)
	}
	dst = strconv.AppendInt(dst, int64(p.Explicit), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(p.Total), 10)
	dst = append(dst, " labeled ("...)
	dst = strconv.AppendFloat(dst, pct(p.Explicit), 'f', 1, 64)
	dst = append(dst, "%), "...)
	dst = strconv.AppendInt(dst, int64(p.Implied), 10)
	dst = append(dst, " implied ("...)
	dst = strconv.AppendFloat(dst, pct(p.Implied), 'f', 1, 64)
	dst = append(dst, "%), "...)
	dst = strconv.AppendInt(dst, int64(p.Informative), 10)
	return append(dst, " informative remain"...)
}

// CheckInvariants verifies internal consistency; used by tests and
// failure-injection harnesses.
func (st *State) CheckInvariants() error {
	if !st.IsConsistent() {
		return fmt.Errorf("core: M_P %v refines a negative signature", st.mp)
	}
	// Antichain property of negatives.
	negs := st.Negatives()
	for i := range negs {
		for j := range negs {
			if i != j && negs[i].LessEq(negs[j]) {
				return fmt.Errorf("core: negative %v dominated by %v", negs[i], negs[j])
			}
		}
	}
	// impliedNegative is the definitional implied-negative test, with
	// partition meets: the lattice's word operations are held to it.
	impliedNegative := func(sig partition.P) bool {
		m := st.mp.Meet(sig)
		for _, neg := range negs {
			if m.LessEq(neg) {
				return true
			}
		}
		return false
	}
	definitional := func(sig partition.P) Label {
		switch {
		case st.mp.LessEq(sig):
			return ImpliedPositive
		case impliedNegative(sig):
			return ImpliedNegative
		}
		return Unlabeled
	}
	// Registration arrays must cover the (possibly grown) instance, and
	// every tuple's class must carry the tuple's own Eq signature.
	if len(st.labels) != st.rel.Len() || len(st.classOf) != st.rel.Len() {
		return fmt.Errorf("core: registration arrays (%d labels, %d classOf) drifted from instance size %d",
			len(st.labels), len(st.classOf), st.rel.Len())
	}
	if err := st.cls.check(); err != nil {
		return err
	}
	sigs := make([]partition.P, st.cls.len())
	for c := range sigs {
		sigs[c] = st.ClassSig(c)
	}
	var counts [5]int
	for i, l := range st.labels {
		counts[l]++
		if c := int(st.classOf[i]); c < 0 || c >= len(sigs) {
			return fmt.Errorf("core: tuple %d mapped to class %d of %d", i, c, len(sigs))
		}
		t := st.rel.Tuple(i)
		sig := sigs[st.classOf[i]]
		if want := partition.FromEqual(st.n, func(a, b int) bool { return t[a].Equal(t[b]) }); !sig.Equal(want) {
			return fmt.Errorf("core: tuple %d has signature %v, its class carries %v", i, want, sig)
		}
		switch l {
		case Unlabeled:
			if implied := definitional(sig); implied != Unlabeled {
				return fmt.Errorf("core: tuple %d unlabeled but implied %v", i, implied)
			}
		case Positive, ImpliedPositive:
			// Every positive must be selected by M_P.
			if !st.mp.LessEq(sig) {
				return fmt.Errorf("core: tuple %d labeled %v but M_P does not select it", i, l)
			}
		case Negative, ImpliedNegative:
			if !impliedNegative(sig) {
				return fmt.Errorf("core: tuple %d labeled %v but some consistent query selects it", i, l)
			}
		}
	}
	if counts != st.counts {
		return fmt.Errorf("core: label counts %v drifted from cache %v", counts, st.counts)
	}
	if len(st.lat.negs) != len(negs) {
		return fmt.Errorf("core: lattice tracks %d negatives, state has %d", len(st.lat.negs), len(negs))
	}
	for k, neg := range negs {
		held, want := st.lat.negs[k], st.cls.sig(int(st.negs[k]))
		if !slices.Equal(held, neg.PairSet()) || len(want) > 0 && &held[0] != &want[0] {
			return fmt.Errorf("core: lattice pairs of negative %v drifted from the class table", neg)
		}
	}
	// Incremental scoring state: per-class unlabeled counts, the
	// informative-class index, and the lattice's view of implied
	// status must all agree with a from-scratch recount.
	if !slices.IsSorted(st.infClasses) || len(slices.Compact(slices.Clone(st.infClasses))) != len(st.infClasses) {
		return fmt.Errorf("core: informative index not sorted and distinct: %v", st.infClasses)
	}
	members := 0
	for c, sig := range sigs {
		members += len(st.cls.members(c))
		n := 0
		for _, i := range st.cls.members(c) {
			if int(st.classOf[i]) != c {
				return fmt.Errorf("core: class %d lists tuple %d, which maps to class %d", c, i, st.classOf[i])
			}
			if st.labels[i] == Unlabeled {
				n++
			}
		}
		if n != int(st.cls.unlabeled[c]) {
			return fmt.Errorf("core: class %d unlabeled count %d drifted from cache %d", c, n, st.cls.unlabeled[c])
		}
		if st.inInformativeIndex(int32(c)) != (n > 0) {
			return fmt.Errorf("core: class %d informative-index membership %v with %d unlabeled", c, !(n > 0), n)
		}
		if got, want := st.impliedClass(c), definitional(sig); got != want {
			return fmt.Errorf("core: class %d lattice implied %v, definitional %v", c, got, want)
		}
	}
	if members != len(st.labels) {
		return fmt.Errorf("core: classes list %d tuples, instance has %d", members, len(st.labels))
	}
	return st.checkProjections()
}
