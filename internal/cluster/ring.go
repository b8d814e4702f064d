// Package cluster turns N jimserver processes into one logical
// service. A consistent-hash ring pins every session id to an owner
// node; a replication stream ships the owner's committed WAL frames
// to a designated follower so it can promote on owner death; a
// membership view with a failed-node chain routes a dead node's whole
// key range to the follower that actually holds its replicas.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per physical node. Vnode
// imbalance shrinks like 1/sqrt(vnodes): 64 points holds the 15% band
// the ring property test enforces through ~5 nodes, and 256 holds it
// through 8, so the default buys headroom — the sorted point slice is
// still only a few KB per node.
const DefaultVnodes = 256

type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Each node contributes
// vnodes points on a uint64 circle; a key is owned by the first point
// clockwise from its hash. Membership changes move only the keys that
// fall between the affected points — about 1/N of the space when one
// of N nodes joins or leaves.
type Ring struct {
	nodes  []string
	points []point
}

// fnv64 is FNV-1a over s, pushed through a 64-bit avalanche finalizer
// (the murmur3 fmix64 constants). Raw FNV-1a keeps short sequential
// keys like "s0001".."s9999" clustered on the circle, which breaks
// key balance; the finalizer disperses them. Inlined rather than
// hash/fnv so the hot Owner path needs no allocation.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring over the given node ids. vnodes <= 0 selects
// DefaultVnodes. Node ids must be unique and non-empty.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	sorted := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n)
		}
		seen[n] = true
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	points := make([]point, 0, len(sorted)*vnodes)
	for _, n := range sorted {
		for i := 0; i < vnodes; i++ {
			points = append(points, point{fnv64(n + "#" + strconv.Itoa(i)), n})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node // deterministic tie-break
	})
	return &Ring{nodes: sorted, points: points}, nil
}

// Owner returns the node id owning key: the first vnode point at or
// clockwise from the key's hash, wrapping past the top of the circle.
func (r *Ring) Owner(key string) string {
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the member ids in sorted order. Callers must not
// mutate the returned slice.
func (r *Ring) Nodes() []string { return r.nodes }
