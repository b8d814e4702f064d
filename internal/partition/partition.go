// Package partition implements partitions of {0..n-1} — equivalence
// relations over attribute positions — which are the canonical form of
// equi-join predicates in JIM.
//
// A join predicate is a set of equality atoms a_i = a_j closed under
// reflexivity, symmetry, and transitivity, i.e. a partition of the
// attribute set. The partition lattice ordered by refinement (P ≤ Q iff
// every block of P lies inside a block of Q, iff Pairs(P) ⊆ Pairs(Q))
// is the hypothesis space searched by the inference engine:
//
//   - Bottom (all singletons) is the most general query and selects
//     every tuple.
//   - Top (one block) is the most specific query.
//   - A query Q selects a tuple t iff Q ≤ Eq(t), where Eq(t) is the
//     partition induced on the attributes by value equality inside t.
//
// Partitions are stored in canonical restricted-growth form: block
// labels are assigned by first occurrence, so two equal partitions have
// identical label slices and identical Keys.
package partition

import (
	"fmt"
	"strconv"
	"strings"
)

// P is a partition of {0..n-1} in canonical restricted-growth form.
// The zero value is the empty partition of zero elements.
//
// A P may additionally carry a lazy cache of derived forms (canonical
// key, pair bitset) — see Cached and bits.go. The cache is invisible
// to the lattice semantics: Equal, LessEq, Meet, and Join depend only
// on the labels.
type P struct {
	labels []int // labels[i] = block id of element i, canonical
	blocks int   // number of distinct blocks
	cache  *pCache
}

// New builds a partition from arbitrary block labels (equal labels mean
// same block) and canonicalizes them by first occurrence.
func New(labels []int) P {
	remap := make(map[int]int, len(labels))
	canon := make([]int, len(labels))
	next := 0
	for i, l := range labels {
		id, ok := remap[l]
		if !ok {
			id = next
			next++
			remap[l] = id
		}
		canon[i] = id
	}
	return P{labels: canon, blocks: next}
}

// Bottom returns the all-singletons partition of n elements — the most
// general join predicate (no equality atoms; selects every tuple).
func Bottom(n int) P {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	return P{labels: labels, blocks: n}
}

// Top returns the single-block partition of n elements — the most
// specific join predicate (all attributes equal).
func Top(n int) P {
	if n == 0 {
		return P{}
	}
	return P{labels: make([]int, n), blocks: 1}
}

// FromBlocks builds a partition of n elements from explicit blocks.
// Elements not mentioned become singletons; mentioning an element twice
// or out of range is an error.
func FromBlocks(n int, blocks [][]int) (P, error) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for bi, b := range blocks {
		for _, e := range b {
			if e < 0 || e >= n {
				return P{}, fmt.Errorf("partition: element %d out of range [0,%d)", e, n)
			}
			if labels[e] != -1 {
				return P{}, fmt.Errorf("partition: element %d appears in two blocks", e)
			}
			labels[e] = n + bi // distinct from singleton ids below
		}
	}
	next := 0
	for i, l := range labels {
		if l == -1 {
			labels[i] = next // fresh singleton label; unique because next < n+0
			next++
		}
	}
	return New(labels), nil
}

// MustFromBlocks is FromBlocks that panics on malformed input; intended
// for statically-known literals in tests and examples.
func MustFromBlocks(n int, blocks [][]int) P {
	p, err := FromBlocks(n, blocks)
	if err != nil {
		panic(err)
	}
	return p
}

// FromPairs builds the finest partition in which each given pair is in
// the same block (the reflexive-transitive-symmetric closure of the
// atom set).
func FromPairs(n int, pairs [][2]int) (P, error) {
	uf := newUnionFind(n)
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= n || pr[1] < 0 || pr[1] >= n {
			return P{}, fmt.Errorf("partition: pair (%d,%d) out of range [0,%d)", pr[0], pr[1], n)
		}
		uf.union(pr[0], pr[1])
	}
	return uf.partition(), nil
}

// FromEqual builds the partition induced by a pairwise equality
// predicate, e.g. value equality inside a tuple. eq must behave as an
// equivalence relation on {0..n-1} (value equality does).
func FromEqual(n int, eq func(i, j int) bool) P {
	labels := make([]int, n)
	return P{labels: labels, blocks: EqualLabels(labels, eq)}
}

// EqualLabels is the allocation-free core of FromEqual: it writes the
// canonical block labels of the partition eq induces on
// {0..len(labels)-1} into labels and returns the block count. Callers
// classifying many tuples reuse one labels buffer, look the signature
// up by AppendKey or HashLabels, and build a P only for signatures
// they have not seen before.
func EqualLabels(labels []int, eq func(i, j int) bool) int {
	blocks := 0
	for i := range labels {
		labels[i] = -1
		for j := 0; j < i; j++ {
			if eq(j, i) {
				labels[i] = labels[j]
				break
			}
		}
		if labels[i] == -1 {
			labels[i] = blocks
			blocks++
		}
	}
	return blocks
}

// Label is the element type of a canonical label vector: int as
// EqualLabels writes it, or a byte per element where a table of many
// partitions stores them compactly.
type Label interface{ ~int | ~uint8 }

// HashLabels hashes the canonical labels of a partition (FNV-1a over
// the label values): equal partitions hash equally, whichever Label
// type holds the labels, so an index of partitions can key on the hash
// and confirm by comparing labels.
func HashLabels[L Label](labels []L) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range labels {
		h = (h ^ uint64(l)) * 1099511628211
	}
	return h
}

// FromCanonical builds the partition whose canonical labels are labels
// (restricted-growth form, as EqualLabels writes them), copying them.
// It panics on labels that are not canonical.
func FromCanonical[L Label](labels []L) P {
	own := make([]int, len(labels))
	blocks := 0
	for i, l := range labels {
		b := int(l)
		if b > blocks {
			panic(fmt.Sprintf("partition: labels %v are not canonical", labels))
		}
		if b == blocks {
			blocks++
		}
		own[i] = b
	}
	return P{labels: own, blocks: blocks}
}

// N returns the number of elements partitioned.
func (p P) N() int { return len(p.labels) }

// BlockCount returns the number of blocks.
func (p P) BlockCount() int { return p.blocks }

// BlockOf returns the canonical block id of element i.
func (p P) BlockOf(i int) int { return p.labels[i] }

// SameBlock reports whether elements i and j share a block, i.e. whether
// the predicate contains the atom a_i = a_j.
func (p P) SameBlock(i, j int) bool { return p.labels[i] == p.labels[j] }

// Blocks returns the blocks as sorted index slices, ordered by first
// element (canonical order).
func (p P) Blocks() [][]int {
	out := make([][]int, p.blocks)
	for i, l := range p.labels {
		out[l] = append(out[l], i)
	}
	return out
}

// BlockSizes returns the size of each block in canonical order.
func (p P) BlockSizes() []int {
	sizes := make([]int, p.blocks)
	for _, l := range p.labels {
		sizes[l]++
	}
	return sizes
}

// PairCount returns |Pairs(p)|: the number of unordered element pairs
// in a common block. It measures predicate specificity.
func (p P) PairCount() int {
	if info := p.readyPairs(); info != nil {
		return info.count
	}
	total := 0
	for _, s := range p.BlockSizes() {
		total += s * (s - 1) / 2
	}
	return total
}

// Pairs returns every unordered pair (i<j) of elements sharing a block.
func (p P) Pairs() [][2]int {
	var out [][2]int
	for i := 0; i < len(p.labels); i++ {
		for j := i + 1; j < len(p.labels); j++ {
			if p.labels[i] == p.labels[j] {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Atoms returns a minimal set of equality atoms generating p: for each
// non-singleton block, the pairs linking its first element to the rest.
// Rendering SQL from Atoms avoids the quadratic blow-up of Pairs.
func (p P) Atoms() [][2]int {
	var out [][2]int
	for _, b := range p.Blocks() {
		for k := 1; k < len(b); k++ {
			out = append(out, [2]int{b[0], b[k]})
		}
	}
	return out
}

// NonSingletonBlocks returns only the blocks of size two or more — the
// blocks carrying equality constraints.
func (p P) NonSingletonBlocks() [][]int {
	var out [][]int
	for _, b := range p.Blocks() {
		if len(b) > 1 {
			out = append(out, b)
		}
	}
	return out
}

// IsBottom reports whether p is the all-singletons partition.
func (p P) IsBottom() bool { return p.blocks == len(p.labels) }

// IsTop reports whether p is the single-block partition.
func (p P) IsTop() bool { return p.blocks <= 1 && len(p.labels) > 0 || len(p.labels) == 0 }

// Equal reports whether p and q are the same partition.
func (p P) Equal(q P) bool {
	if len(p.labels) != len(q.labels) || p.blocks != q.blocks {
		return false
	}
	for i := range p.labels {
		if p.labels[i] != q.labels[i] {
			return false
		}
	}
	return true
}

// LessEq reports refinement: p ≤ q iff every block of p lies inside a
// block of q, iff Pairs(p) ⊆ Pairs(q). In query terms, p ≤ Eq(t) iff
// the predicate p selects tuple t; and p ≤ q iff p's result contains
// q's result on every instance.
func (p P) LessEq(q P) bool {
	if len(p.labels) != len(q.labels) {
		return false
	}
	// When both sides already have memoized pair bitsets (long-lived
	// signatures on the inference hot path), refinement is a subset
	// check over a few words, with no allocation. The check never
	// computes a bitset: one-shot comparisons keep the O(n) scan below.
	if pb, qb := p.readyPairs(), q.readyPairs(); pb != nil && qb != nil {
		return pb.set.SubsetOf(qb.set)
	}
	img := make([]int, p.blocks)
	for i := range img {
		img[i] = -1
	}
	for i, pb := range p.labels {
		if img[pb] == -1 {
			img[pb] = q.labels[i]
		} else if img[pb] != q.labels[i] {
			return false
		}
	}
	return true
}

// Less reports strict refinement.
func (p P) Less(q P) bool { return p.LessEq(q) && !p.Equal(q) }

// Meet returns the greatest lower bound of p and q in refinement order:
// the coarsest partition refining both, whose pair set is the
// intersection Pairs(p) ∩ Pairs(q). The meet of the Eq-signatures of
// the positive examples is JIM's most specific consistent hypothesis.
func (p P) Meet(q P) P {
	if len(p.labels) != len(q.labels) {
		panic(fmt.Sprintf("partition: meet of mismatched sizes %d and %d", len(p.labels), len(q.labels)))
	}
	type key struct{ a, b int }
	seen := make(map[key]int, len(p.labels))
	labels := make([]int, len(p.labels))
	next := 0
	for i := range p.labels {
		k := key{p.labels[i], q.labels[i]}
		id, ok := seen[k]
		if !ok {
			id = next
			next++
			seen[k] = id
		}
		labels[i] = id
	}
	return P{labels: labels, blocks: next}
}

// Join returns the least upper bound of p and q in refinement order:
// the finest partition coarsening both (transitive closure of
// Pairs(p) ∪ Pairs(q)).
func (p P) Join(q P) P {
	if len(p.labels) != len(q.labels) {
		panic(fmt.Sprintf("partition: join of mismatched sizes %d and %d", len(p.labels), len(q.labels)))
	}
	uf := newUnionFind(len(p.labels))
	mergeBlocks(uf, p)
	mergeBlocks(uf, q)
	return uf.partition()
}

func mergeBlocks(uf *unionFind, p P) {
	first := make([]int, p.blocks)
	for i := range first {
		first[i] = -1
	}
	for i, l := range p.labels {
		if first[l] == -1 {
			first[l] = i
		} else {
			uf.union(first[l], i)
		}
	}
}

// Key returns a compact canonical string key for map indexing. Equal
// partitions have equal keys and vice versa. Cached partitions
// memoize the key on first use.
func (p P) Key() string {
	if p.cache == nil {
		return p.buildKey()
	}
	if k := p.cache.key.Load(); k != nil {
		return *k
	}
	k := p.buildKey()
	p.cache.key.CompareAndSwap(nil, &k)
	return *p.cache.key.Load()
}

func (p P) buildKey() string {
	if len(p.labels) == 0 {
		return ""
	}
	var buf [64]byte
	return string(AppendKey(buf[:0], p.labels))
}

// AppendKey appends the Key of the partition with the given canonical
// labels (as EqualLabels writes them) to dst and returns the extended
// slice.
func AppendKey(dst []byte, labels []int) []byte {
	for _, l := range labels {
		if l < 26 {
			dst = append(dst, byte('a'+l))
		} else {
			dst = append(dst, '<')
			dst = strconv.AppendInt(dst, int64(l), 10)
			dst = append(dst, '>')
		}
	}
	return dst
}

// String renders the partition with numeric elements, e.g.
// "{0}{1,3}{2,4}".
func (p P) String() string {
	names := make([]string, len(p.labels))
	for i := range names {
		names[i] = fmt.Sprint(i)
	}
	return p.Format(names)
}

// Format renders the partition using the given element names, e.g.
// "{From}{To,City}{Airline,Discount}". It panics if names has the wrong
// length.
func (p P) Format(names []string) string {
	if len(names) != len(p.labels) {
		panic(fmt.Sprintf("partition: Format with %d names for %d elements", len(names), len(p.labels)))
	}
	var b strings.Builder
	for _, blk := range p.Blocks() {
		b.WriteByte('{')
		for k, e := range blk {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(names[e])
		}
		b.WriteByte('}')
	}
	return b.String()
}

// FormatAtoms renders only the equality atoms, e.g.
// "To=City ∧ Airline=Discount", or "⊥ (no constraints)" for Bottom.
func (p P) FormatAtoms(names []string) string {
	if len(names) != len(p.labels) {
		panic(fmt.Sprintf("partition: FormatAtoms with %d names for %d elements", len(names), len(p.labels)))
	}
	blocks := p.NonSingletonBlocks()
	if len(blocks) == 0 {
		return "⊥ (no constraints)"
	}
	var parts []string
	for _, b := range blocks {
		named := make([]string, len(b))
		for i, e := range b {
			named[i] = names[e]
		}
		parts = append(parts, strings.Join(named, "="))
	}
	return strings.Join(parts, " ∧ ")
}

// unionFind is a standard union-find over {0..n-1} with path halving.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	return &unionFind{parent: parent}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// partition converts the union-find state to a canonical partition.
func (u *unionFind) partition() P {
	labels := make([]int, len(u.parent))
	for i := range labels {
		labels[i] = u.find(i)
	}
	return New(labels)
}
