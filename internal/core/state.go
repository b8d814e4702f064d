package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/partition"
	"repro/internal/relation"
)

// ErrInconsistent reports a label that contradicts the labels given so
// far: no join predicate is consistent with the combined set. With a
// truthful user this cannot happen; it surfaces noisy (crowd) labels.
var ErrInconsistent = errors.New("core: label is inconsistent with previous labels")

// ErrAlreadyLabeled reports an explicit label for a tuple the user
// already labeled explicitly.
var ErrAlreadyLabeled = errors.New("core: tuple already labeled explicitly")

// SigGroup is a signature class: the tuples of the instance sharing one
// Eq signature. Every hypothesis treats such tuples identically, so
// informativeness, implied labels, and strategy scores are computed per
// group, not per tuple (the signature-grouping optimization benched in
// E7).
type SigGroup struct {
	Sig     partition.P
	Indices []int // tuple indices in first-occurrence order
	Pos     int   // position in State.Groups(), fixed at registration
}

// State holds the instance and everything the engine knows: explicit
// and implied labels, the most specific consistent hypothesis M_P, and
// the maximal antichain of negative signatures.
type State struct {
	rel    *relation.Relation
	n      int // number of attributes
	labels []Label

	mp   partition.P   // meet of positive signatures; Top initially
	negs []partition.P // ≤-maximal negative signatures (antichain)

	groups  []*SigGroup
	groupOf []int          // tuple index -> group position; Sig(i) is its class's Sig
	byKey   map[string]int // signature key -> group position
	counts  [5]int

	// Ingestion scratch, reused so that registering a tuple whose class
	// already exists allocates nothing: its signature's canonical labels
	// and key (register), and a per-class stamp marking the classes an
	// Append batch has already classified (classifyArrivals).
	sigLabels   []int
	sigKey      []byte
	arrivalMark []int
	classAdds   []int // per-class member count of a batch (indexMembers)

	// Incrementally maintained scoring state (see lattice.go): the
	// per-class unlabeled counts, the positions of classes that still
	// hold informative tuples (always sorted), and the pair-bitset
	// lattice over the registered signature set. Together they let
	// implied checks and lookahead simulations run without scanning
	// tuples or allocating partitions.
	groupUnlabeled []int
	infGroups      []int
	lat            lattice

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
	st := &State{
		rel:       rel,
		n:         n,
		mp:        partition.Top(n).Cached(),
		byKey:     make(map[string]int),
		base:      rel.Len(),
		sigLabels: make([]int, n),
	}
	st.labels = make([]Label, 0, rel.Len())
	st.groupOf = make([]int, 0, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		st.register(rel.Tuple(i))
	}
	st.indexMembers(0)
	st.infGroups = make([]int, len(st.groups))
	for gi := range st.groups {
		st.infGroups[gi] = gi
	}
	st.lat.init(st.groups, st.mp, st.negs)
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
	if len(tuples) == 0 {
		return nil, nil
	}
	for k, t := range tuples {
		if len(t) != st.n {
			return nil, fmt.Errorf("%w: appended tuple %d has arity %d, want %d", ErrSchemaMismatch, k, len(t), st.n)
		}
	}
	prevClasses := len(st.groups)
	firstNew := len(st.labels)
	// The per-tuple arrays grow once for the whole batch.
	st.rel.MustAppend(tuples...) // arity pre-checked above
	st.labels = reserve(st.labels, len(tuples))
	st.groupOf = reserve(st.groupOf, len(tuples))
	for _, t := range tuples {
		st.register(t)
	}
	st.indexMembers(firstNew)
	st.lat.appendClasses(st.groups[prevClasses:])
	newlyImplied = st.classifyArrivals(firstNew, prevClasses)
	st.version++
	st.structureVersion++
	return newlyImplied, nil
}

// classifyArrivals labels the tuples appended at or after index
// firstNew against the current hypothesis and repairs the sorted
// informative-class index. Classes at positions >= prevClasses are
// new; classes below it existed before the batch. An existing class
// that was informative stays informative (the hypothesis did not
// move), so only new and previously-settled classes are classified.
func (st *State) classifyArrivals(firstNew, prevClasses int) []int {
	var newly []int
	var reenter []int // sorted class positions to add to infGroups
	// Append bumps StructureVersion once per batch after this call, so
	// the post-batch version stamps each class at most once per batch.
	mark := st.structureVersion + 1
	for len(st.arrivalMark) < len(st.groups) {
		st.arrivalMark = append(st.arrivalMark, 0)
	}
	for i := firstNew; i < len(st.labels); i++ {
		gi := st.groupOf[i]
		if st.arrivalMark[gi] == mark {
			continue
		}
		st.arrivalMark[gi] = mark
		inIndex := gi < prevClasses && st.inInformativeIndex(gi)
		if inIndex {
			continue // informative class stays informative; counts already updated
		}
		implied := st.lat.impliedGroup(gi)
		if implied == Unlabeled {
			reenter = append(reenter, gi)
			continue
		}
		if newly == nil {
			// At most every arrival is implied: one allocation.
			newly = make([]int, 0, len(st.labels)-firstNew)
		}
		for _, j := range st.groups[gi].Indices {
			if st.labels[j] == Unlabeled {
				st.setLabel(j, implied)
				newly = append(newly, j)
			}
		}
	}
	if len(reenter) > 0 {
		sort.Ints(reenter)
		st.infGroups = mergeSorted(st.infGroups, reenter)
	}
	return newly
}

// inInformativeIndex reports membership of class gi in the sorted
// informative-class index.
func (st *State) inInformativeIndex(gi int) bool {
	k := sort.SearchInts(st.infGroups, gi)
	return k < len(st.infGroups) && st.infGroups[k] == gi
}

// mergeSorted merges two sorted, disjoint position lists in place of a.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
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

// indexMembers adds the tuples registered at or after index first to
// their classes' member lists (SigGroup.Indices), growing each list
// once: a count pass sizes every list before the fill pass appends.
func (st *State) indexMembers(first int) {
	adds := st.classAdds[:0]
	for range st.groups {
		adds = append(adds, 0)
	}
	for _, gi := range st.groupOf[first:] {
		adds[gi]++
	}
	for gi, n := range adds {
		if n > 0 {
			st.groups[gi].Indices = reserve(st.groups[gi].Indices, n)
		}
	}
	for i, gi := range st.groupOf[first:] {
		st.groups[gi].Indices = append(st.groups[gi].Indices, first+i)
	}
	st.classAdds = adds
}

// register indexes one tuple already present at the tail of st.rel:
// it computes the Eq signature, finds or creates the signature class,
// and extends the per-tuple and per-class arrays. The tuple starts
// Unlabeled and is not yet in its class's member list (indexMembers
// adds a whole batch); classification against the hypothesis is the
// caller's job (propagate at NewState, classifyArrivals at Append). It
// returns the class position.
//
// The signature is computed into State-owned scratch and looked up by
// its key bytes (the map index converts without allocating), so a
// tuple landing in an existing class costs only amortized slice
// growth; a partition is built only when the class is new.
func (st *State) register(t relation.Tuple) int {
	eqLabels(st.sigLabels, t)
	st.sigKey = partition.AppendKey(st.sigKey[:0], st.sigLabels)
	gi, ok := st.byKey[string(st.sigKey)]
	if !ok {
		gi = len(st.groups)
		st.byKey[string(st.sigKey)] = gi
		st.groups = append(st.groups, &SigGroup{Sig: partition.New(st.sigLabels).Cached(), Pos: gi})
		st.groupUnlabeled = append(st.groupUnlabeled, 0)
	}
	st.groupOf = append(st.groupOf, gi)
	st.labels = append(st.labels, Unlabeled)
	st.counts[Unlabeled]++
	st.groupUnlabeled[gi]++
	return gi
}

// eqLabels writes the canonical block labels of t's Eq signature into
// labels (cells i and j share a block iff t[i].Equal(t[j])): the
// partition.EqualLabels loop with value equality called directly
// instead of through a closure per cell pair.
func eqLabels(labels []int, t relation.Tuple) {
	blocks := 0
	for i := range labels {
		l := -1
		for j := 0; j < i; j++ {
			if t[j].Equal(t[i]) {
				l = labels[j]
				break
			}
		}
		if l < 0 {
			l = blocks
			blocks++
		}
		labels[i] = l
	}
}

// Relation returns the instance being labeled.
func (st *State) Relation() *relation.Relation { return st.rel }

// AttrCount returns the number of attributes.
func (st *State) AttrCount() int { return st.n }

// Sig returns the Eq signature of tuple i: its class's cached
// signature, so every lattice question about the tuple hits the
// memoized bitset.
func (st *State) Sig(i int) partition.P { return st.groups[st.groupOf[i]].Sig }

// Label returns the current label of tuple i.
func (st *State) Label(i int) Label { return st.labels[i] }

// MP returns M_P, the meet of the positive signatures: the most
// specific hypothesis consistent with the positive examples, and the
// canonical inferred query at convergence.
func (st *State) MP() partition.P { return st.mp }

// Negatives returns the ≤-maximal negative signatures (the sufficient
// statistic for the negative examples). The caller must not mutate it.
func (st *State) Negatives() []partition.P { return st.negs }

// Groups returns the signature classes of the instance. The caller
// must not mutate them.
func (st *State) Groups() []*SigGroup { return st.groups }

// GroupOf returns the signature class containing tuple i.
func (st *State) GroupOf(i int) *SigGroup { return st.groups[st.groupOf[i]] }

// impliedPositive reports whether every consistent hypothesis selects
// tuples with the given signature.
func (st *State) impliedPositive(sig partition.P) bool {
	return st.mp.LessEq(sig)
}

// impliedNegative reports whether no consistent hypothesis selects
// tuples with the given signature.
func (st *State) impliedNegative(sig partition.P) bool {
	m := st.mp.Meet(sig)
	for _, neg := range st.negs {
		if m.LessEq(neg) {
			return true
		}
	}
	return false
}

// ImpliedLabel returns the label forced on the given signature by the
// current examples, or Unlabeled if the signature is informative.
func (st *State) ImpliedLabel(sig partition.P) Label {
	if st.impliedPositive(sig) {
		return ImpliedPositive
	}
	if st.impliedNegative(sig) {
		return ImpliedNegative
	}
	return Unlabeled
}

// Informative reports whether tuple i is informative: unlabeled and
// with consistent hypotheses disagreeing about it.
func (st *State) Informative(i int) bool {
	return st.labels[i] == Unlabeled
}

// InformativeGroups returns the signature classes that still contain
// informative tuples, in stable order.
func (st *State) InformativeGroups() []*SigGroup {
	return st.AppendInformativeGroups(nil)
}

// AppendInformativeGroups appends the informative signature classes to
// buf, in stable order, and returns the extended slice. Hot loops pass
// a reused buffer (buf[:0]) so per-pick selection allocates nothing.
func (st *State) AppendInformativeGroups(buf []*SigGroup) []*SigGroup {
	for _, gi := range st.infGroups {
		buf = append(buf, st.groups[gi])
	}
	return buf
}

// InformativeGroupCount returns the number of signature classes that
// still contain informative tuples — the natural candidate-list size
// for top-k ranking (one proposal per class is ever useful).
func (st *State) InformativeGroupCount() int { return len(st.infGroups) }

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

// GroupUnlabeled returns the number of unlabeled tuples in the class
// at position gi of Groups().
func (st *State) GroupUnlabeled(gi int) int { return st.groupUnlabeled[gi] }

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
	for _, neg := range st.negs {
		if st.mp.LessEq(neg) {
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
	if i < 0 || i >= len(st.labels) {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrOutOfRange, i, len(st.labels))
	}
	if !l.IsExplicit() {
		return nil, fmt.Errorf("core: Apply requires an explicit label, got %v", l)
	}
	if st.labels[i].IsExplicit() {
		return nil, fmt.Errorf("%w: tuple %d is %v", ErrAlreadyLabeled, i, st.labels[i])
	}
	sig := st.Sig(i)
	// Contradiction checks (state not yet mutated).
	if l == Positive && st.impliedNegative(sig) {
		return nil, fmt.Errorf("%w: tuple %d labeled +, but no consistent query selects it", ErrInconsistent, i)
	}
	if l == Negative && st.impliedPositive(sig) {
		return nil, fmt.Errorf("%w: tuple %d labeled -, but every consistent query selects it", ErrInconsistent, i)
	}

	st.setLabel(i, l)
	switch l {
	case Positive:
		// M_P moves only when the new positive's signature does not
		// already refine above it; leaving it untouched keeps the
		// mp-conditioned caches (lattice rows, strategy scores) valid.
		if !st.mp.LessEq(sig) {
			st.mp = st.mp.Meet(sig).Cached()
			st.mpVersion++
			st.lat.setMP(st.mp)
		}
	case Negative:
		if st.addNegative(sig) {
			st.lat.setNegs(st.negs)
		}
	}
	st.version++
	return st.propagate(), nil
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

// addNegative inserts sig into the maximal antichain of negative
// signatures: a signature refined by an existing one is redundant
// (Q ≰ coarser implies Q ≰ finer), so only ≤-maximal elements are
// kept. It reports whether the antichain changed.
func (st *State) addNegative(sig partition.P) bool {
	for _, neg := range st.negs {
		if sig.LessEq(neg) {
			return false // dominated: the new constraint is already implied
		}
	}
	kept := st.negs[:0]
	for _, neg := range st.negs {
		if !neg.LessEq(sig) {
			kept = append(kept, neg)
		}
	}
	st.negs = append(kept, sig)
	return true
}

// propagate reclassifies the classes that might have changed status —
// exactly the ones still holding unlabeled tuples — and returns the
// tuple indices newly marked implied. It also compacts the
// informative-class index in place, so convergence checks and
// candidate listing stay O(informative classes), never O(tuples).
func (st *State) propagate() []int {
	var newly []int
	kept := st.infGroups[:0]
	for _, gi := range st.infGroups {
		if st.groupUnlabeled[gi] == 0 {
			continue // settled by the explicit label this round
		}
		implied := st.lat.impliedGroup(gi)
		if implied == Unlabeled {
			kept = append(kept, gi)
			continue
		}
		for _, i := range st.groups[gi].Indices {
			if st.labels[i] == Unlabeled {
				st.setLabel(i, implied)
				newly = append(newly, i)
			}
		}
	}
	st.infGroups = kept
	return newly
}

func (st *State) setLabel(i int, l Label) {
	old := st.labels[i]
	st.counts[old]--
	st.labels[i] = l
	st.counts[l]++
	if old == Unlabeled {
		st.groupUnlabeled[st.groupOf[i]]--
	}
}

// SimulatePrune returns how many currently-unlabeled tuples would stop
// being informative if a tuple with the given signature received the
// given explicit label — including the labeled tuple itself and its
// signature class. This is the quantity-of-information measure behind
// the lookahead strategies. The state is not modified.
func (st *State) SimulatePrune(sig partition.P, l Label) int {
	if !l.IsExplicit() {
		panic(fmt.Sprintf("core: SimulatePrune with non-explicit label %v", l))
	}
	if sig.N() != st.n {
		// Foreign-size signature (tests only): fall back to the
		// definitional hypothesis simulation.
		next := st.Hypo().Apply(sig, l)
		count := 0
		for _, gi := range st.infGroups {
			if next.ImpliedLabel(st.groups[gi].Sig) != Unlabeled {
				count += st.groupUnlabeled[gi]
			}
		}
		return count
	}
	if gi, ok := st.byKey[sig.Key()]; ok {
		return st.SimulatePruneGroup(gi, l)
	}
	if l == Positive {
		return st.simulatePositive(sig.PairSet(), nil)
	}
	return st.simulateNegative(sig.PairSet())
}

// SimulatePruneGroup is SimulatePrune for the signature class at
// position gi of Groups(). It is the strategies' inner loop: every
// test against the cached lattice is a few word operations, and for
// positive simulations the group×group implied-positive relation is
// served from the per-M_P row cache.
func (st *State) SimulatePruneGroup(gi int, l Label) int {
	if !l.IsExplicit() {
		panic(fmt.Sprintf("core: SimulatePruneGroup with non-explicit label %v", l))
	}
	if l == Positive {
		return st.simulatePositive(st.lat.sigs[gi], st.lat.posRow(gi))
	}
	return st.simulateNegative(st.lat.sigs[gi])
}

// simulatePositive counts the unlabeled tuples grayed out by labeling
// a tuple with pair set g positive: the hypothesis meet refines to
// M_P ∧ g, so class h becomes implied positive iff (M_P ∧ g) ≤ h and
// implied negative iff (M_P ∧ g ∧ h) ≤ some maximal negative. row,
// when non-nil, is the cached implied-positive row for g.
func (st *State) simulatePositive(g partition.PairSet, row groupSet) int {
	count := 0
	for _, hi := range st.infGroups {
		h := st.lat.sigs[hi]
		var pruned bool
		if row != nil {
			pruned = row.has(hi)
		} else {
			pruned = partition.IntersectSubset(st.lat.mp, g, h)
		}
		if !pruned {
			for _, neg := range st.lat.negs {
				if partition.IntersectSubset3(st.lat.mp, g, h, neg) {
					pruned = true
					break
				}
			}
		}
		if pruned {
			count += st.groupUnlabeled[hi]
		}
	}
	return count
}

// simulateNegative counts the unlabeled tuples grayed out by labeling
// a tuple with pair set g negative: g joins the negative antichain, so
// class h (not implied by the existing negatives — it is informative)
// becomes implied negative iff (M_P ∧ h) ≤ g. Implied-positive status
// cannot change, so this is a single test per class.
func (st *State) simulateNegative(g partition.PairSet) int {
	count := 0
	for _, hi := range st.infGroups {
		if partition.IntersectSubset(st.lat.mp, st.lat.sigs[hi], g) {
			count += st.groupUnlabeled[hi]
		}
	}
	return count
}

// ConsistentQueries enumerates every hypothesis consistent with the
// current labels, up to the given limit (0 = no limit). The search
// space is the refinement cone below M_P, so the cost is the product
// of Bell numbers of M_P's block sizes — use only on small instances
// (tests, the optimal strategy, and demo statistics).
func (st *State) ConsistentQueries(limit int) []partition.P {
	var out []partition.P
	partition.EnumerateRefinementsOf(st.mp, func(q partition.P) bool {
		for _, neg := range st.negs {
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
	partition.EnumerateRefinementsOf(st.mp, func(q partition.P) bool {
		consistent := true
		for _, neg := range st.negs {
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
	for i := range st.negs {
		for j := range st.negs {
			if i != j && st.negs[i].LessEq(st.negs[j]) {
				return fmt.Errorf("core: negative %v dominated by %v", st.negs[i], st.negs[j])
			}
		}
	}
	// Registration arrays must cover the (possibly grown) instance, and
	// every tuple's class must carry the tuple's own Eq signature.
	if len(st.labels) != st.rel.Len() || len(st.groupOf) != st.rel.Len() {
		return fmt.Errorf("core: registration arrays (%d labels, %d groupOf) drifted from instance size %d",
			len(st.labels), len(st.groupOf), st.rel.Len())
	}
	var counts [5]int
	for i, l := range st.labels {
		counts[l]++
		if gi := st.groupOf[i]; gi < 0 || gi >= len(st.groups) {
			return fmt.Errorf("core: tuple %d mapped to class %d of %d", i, gi, len(st.groups))
		}
		t := st.rel.Tuple(i)
		sig := st.Sig(i)
		if want := partition.FromEqual(st.n, func(a, b int) bool { return t[a].Equal(t[b]) }); !sig.Equal(want) {
			return fmt.Errorf("core: tuple %d has signature %v, its class carries %v", i, want, sig)
		}
		switch l {
		case Unlabeled:
			if implied := st.ImpliedLabel(sig); implied != Unlabeled {
				return fmt.Errorf("core: tuple %d unlabeled but implied %v", i, implied)
			}
		case Positive, ImpliedPositive:
			// Every positive must be selected by M_P.
			if !st.mp.LessEq(sig) {
				return fmt.Errorf("core: tuple %d labeled %v but M_P does not select it", i, l)
			}
		case Negative, ImpliedNegative:
			if !st.impliedNegative(sig) {
				return fmt.Errorf("core: tuple %d labeled %v but some consistent query selects it", i, l)
			}
		}
	}
	if counts != st.counts {
		return fmt.Errorf("core: label counts %v drifted from cache %v", counts, st.counts)
	}
	if len(st.lat.sigs) != len(st.groups) {
		return fmt.Errorf("core: lattice tracks %d classes, state has %d", len(st.lat.sigs), len(st.groups))
	}
	if len(st.byKey) != len(st.groups) {
		return fmt.Errorf("core: key index has %d entries for %d classes", len(st.byKey), len(st.groups))
	}
	for key, gi := range st.byKey {
		if gi < 0 || gi >= len(st.groups) || st.groups[gi].Sig.Key() != key {
			return fmt.Errorf("core: key index entry %q -> %d does not match its class", key, gi)
		}
	}
	// Incremental scoring state: per-class unlabeled counts, the
	// informative-class index, and the lattice's view of implied
	// status must all agree with a from-scratch recount.
	inf := map[int]bool{}
	for _, gi := range st.infGroups {
		if inf[gi] {
			return fmt.Errorf("core: class %d listed twice in informative index", gi)
		}
		inf[gi] = true
	}
	prev := -1
	for _, gi := range st.infGroups {
		if gi <= prev {
			return fmt.Errorf("core: informative index not sorted: %v", st.infGroups)
		}
		prev = gi
	}
	members := 0
	for gi, g := range st.groups {
		if g.Pos != gi {
			return fmt.Errorf("core: class %d carries Pos %d", gi, g.Pos)
		}
		members += len(g.Indices)
		n := 0
		for _, i := range g.Indices {
			if st.groupOf[i] != gi {
				return fmt.Errorf("core: class %d lists tuple %d, which maps to class %d", gi, i, st.groupOf[i])
			}
			if st.labels[i] == Unlabeled {
				n++
			}
		}
		if n != st.groupUnlabeled[gi] {
			return fmt.Errorf("core: class %d unlabeled count %d drifted from cache %d", gi, n, st.groupUnlabeled[gi])
		}
		if inf[gi] != (n > 0) {
			return fmt.Errorf("core: class %d informative-index membership %v with %d unlabeled", gi, inf[gi], n)
		}
		if got, want := st.lat.impliedGroup(gi), st.ImpliedLabel(g.Sig); got != want {
			return fmt.Errorf("core: class %d lattice implied %v, definitional %v", gi, got, want)
		}
	}
	if members != len(st.labels) {
		return fmt.Errorf("core: classes list %d tuples, instance has %d", members, len(st.labels))
	}
	return nil
}
