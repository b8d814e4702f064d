package partition

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// This file implements the pair-bitset form of a partition and the
// lazy per-P cache behind Cached(). Both exist for one reason: the
// inference hot path (core's implied-label checks and the lookahead
// strategies' prune counting) asks the same handful of lattice
// questions — p ≤ q, (p ∧ q) ≤ r, |Pairs(p ∧ q)| — millions of times
// over a fixed set of signatures. In pair-bitset form every one of
// those questions is a short loop of word operations with zero
// allocation, because:
//
//	p ≤ q              ⇔  Pairs(p) ⊆ Pairs(q)
//	Pairs(p ∧ q)        =  Pairs(p) ∩ Pairs(q)
//
// so refinement tests are subset checks and meets are bitwise ANDs.

// PairSet is a bitset over the n·(n−1)/2 unordered element pairs of
// partitions of a common size n: bit k is set iff the k-th pair (in
// row-major i<j order) lies in a common block. PairSets are only
// comparable between partitions of the same size; P.PairSet and the
// helpers below keep that invariant for callers that stay within one
// instance (all signatures of a relation share its attribute count).
type PairSet []uint64

// PairWords returns the number of 64-bit words in the pair bitset of
// an n-element partition: zero for one element, one up to eleven.
func PairWords(n int) int { return (n*(n-1)/2 + 63) / 64 }

// SubsetOf reports a ⊆ b. The sets must come from partitions of the
// same size.
func (a PairSet) SubsetOf(b PairSet) bool {
	for w, aw := range a {
		if aw&^b[w] != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of pairs in the set.
func (a PairSet) Count() int {
	total := 0
	for _, w := range a {
		total += bits.OnesCount64(w)
	}
	return total
}

// IntersectSubset reports a ∩ b ⊆ c without materializing the
// intersection — the allocation-free form of (p ∧ q) ≤ r.
func IntersectSubset(a, b, c PairSet) bool {
	for w, aw := range a {
		if aw&b[w]&^c[w] != 0 {
			return false
		}
	}
	return true
}

// IntersectSubset3 reports a ∩ b ∩ c ⊆ d — the allocation-free form of
// (p ∧ q ∧ r) ≤ s used when simulating a positive label.
func IntersectSubset3(a, b, c, d PairSet) bool {
	for w, aw := range a {
		if aw&b[w]&c[w]&^d[w] != 0 {
			return false
		}
	}
	return true
}

// IntersectInto writes a ∩ b into dst, reusing dst's backing array
// when it is large enough, and returns the result — the materialized
// form of Pairs(p ∧ q) for callers that probe the meet many times
// (the two-step lookahead). The sets must come from partitions of the
// same size.
func IntersectInto(dst, a, b PairSet) PairSet {
	if cap(dst) < len(a) {
		dst = make(PairSet, len(a))
	}
	dst = dst[:len(a)]
	for w, aw := range a {
		dst[w] = aw & b[w]
	}
	return dst
}

// IntersectCount returns |a ∩ b| — the allocation-free form of
// |Pairs(p ∧ q)|, the meet's pair count.
func IntersectCount(a, b PairSet) int {
	total := 0
	for w, aw := range a {
		total += bits.OnesCount64(aw & b[w])
	}
	return total
}

// pairsInfo is the immutable payload of a computed pair bitset.
type pairsInfo struct {
	set   PairSet
	count int // == set.Count(), cached for PairCount
}

// pCache is the lazy, race-safe cache a P carries after Cached(). The
// partition itself stays immutable; the cache memoizes derived forms
// (canonical key, pair bitset) the first time they are requested.
// Copies of a cached P share the cache, so the memoization survives
// pass-by-value. Concurrent fills may duplicate work but never
// conflict: the computed values are identical and installed with
// atomic pointers.
type pCache struct {
	key   atomic.Pointer[string]
	pairs atomic.Pointer[pairsInfo]
}

// Cached returns p carrying a lazy cache for Key, PairCount, and
// PairSet. Use it on long-lived partitions that are interrogated
// repeatedly — the hypothesis M_P, the class signatures a reference
// computation probes over and over. Transient partitions (intermediate meets, enumeration
// output) should stay uncached: attaching a cache costs an allocation
// that would never pay for itself. If p already carries a cache it is
// returned unchanged.
func (p P) Cached() P {
	if p.cache == nil {
		p.cache = &pCache{}
	}
	return p
}

// computePairs builds the pair bitset of p.
func (p P) computePairs() *pairsInfo {
	info := &pairsInfo{set: make(PairSet, PairWords(len(p.labels)))}
	info.count = FillPairs(info.set, p.labels)
	return info
}

// FillPairs sets the bits of set, zeroed and PairWords(len(labels))
// long, for the pairs the labels place in a common block, and returns
// how many it set: the pair bitset of the partition with those labels,
// written where the caller keeps it.
func FillPairs[L Label](set PairSet, labels []L) int {
	idx, count := 0, 0
	for i, li := range labels {
		for _, lj := range labels[i+1:] {
			if li == lj {
				set[idx>>6] |= 1 << (idx & 63)
				count++
			}
			idx++
		}
	}
	return count
}

// pairs returns p's pair bitset, memoizing it when p is Cached.
func (p P) pairs() *pairsInfo {
	if p.cache == nil {
		return p.computePairs()
	}
	if info := p.cache.pairs.Load(); info != nil {
		return info
	}
	info := p.computePairs()
	p.cache.pairs.CompareAndSwap(nil, info)
	return p.cache.pairs.Load()
}

// readyPairs returns the memoized pair bitset if one has already been
// computed, and nil otherwise — it never computes. Fast paths use it
// so that one-shot operations on uncached partitions keep their O(n)
// cost instead of paying an O(n²) bitset build.
func (p P) readyPairs() *pairsInfo {
	if p.cache == nil {
		return nil
	}
	return p.cache.pairs.Load()
}

// PairSet returns p's pair bitset, computing it on first use and
// memoizing it when p is Cached. The caller must not mutate the
// result.
func (p P) PairSet() PairSet { return p.pairs().set }

// MeetPairCount returns |Pairs(p ∧ q)| — equivalent to
// p.Meet(q).PairCount() — without materializing the meet. It panics on
// mismatched sizes, like Meet.
func (p P) MeetPairCount(q P) int {
	if len(p.labels) != len(q.labels) {
		panic(fmt.Sprintf("partition: meet of mismatched sizes %d and %d", len(p.labels), len(q.labels)))
	}
	return IntersectCount(p.PairSet(), q.PairSet())
}

// MeetLessEq reports (p ∧ q) ≤ r — the implied-negative test of the
// inference core — without materializing the meet. It panics on a p/q
// size mismatch, like Meet; a mismatched r makes it false, like
// LessEq.
func (p P) MeetLessEq(q, r P) bool {
	if len(p.labels) != len(q.labels) {
		panic(fmt.Sprintf("partition: meet of mismatched sizes %d and %d", len(p.labels), len(q.labels)))
	}
	if len(r.labels) != len(p.labels) {
		return false
	}
	return IntersectSubset(p.PairSet(), q.PairSet(), r.PairSet())
}
