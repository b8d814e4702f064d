// Package relalg implements a small relational algebra over
// relation.Relation: selection, projection, renaming, cross product,
// equi-/natural joins, set operations, ordering, and limits. JIM uses
// it to materialize denormalized instances from several source
// relations ("the relations to be joined come from disparate data
// sources") and to evaluate inferred predicates back on the sources.
package relalg

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Select returns the tuples of r satisfying pred, preserving order.
func Select(r *relation.Relation, pred func(relation.Tuple) bool) *relation.Relation {
	out := relation.New(r.Schema())
	r.Each(func(_ int, t relation.Tuple) {
		if pred(t) {
			out.MustAppend(t)
		}
	})
	return out
}

// Project returns r restricted to the named attributes, in the given
// order (bag semantics: duplicates are kept).
func Project(r *relation.Relation, names ...string) (*relation.Relation, error) {
	idx, err := r.Schema().Indexes(names...)
	if err != nil {
		return nil, fmt.Errorf("relalg: project: %w", err)
	}
	schema, err := relation.NewSchema(names...)
	if err != nil {
		return nil, fmt.Errorf("relalg: project: %w", err)
	}
	out := relation.New(schema)
	r.Each(func(_ int, t relation.Tuple) {
		nt := make(relation.Tuple, len(idx))
		for k, i := range idx {
			nt[k] = t[i]
		}
		out.MustAppend(nt)
	})
	return out, nil
}

// Rename returns r with attribute old renamed to new.
func Rename(r *relation.Relation, old, new string) (*relation.Relation, error) {
	names := r.Schema().Names()
	found := false
	for i, n := range names {
		if n == old {
			names[i] = new
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("relalg: rename: no attribute %q", old)
	}
	schema, err := relation.NewSchema(names...)
	if err != nil {
		return nil, fmt.Errorf("relalg: rename: %w", err)
	}
	out := relation.New(schema)
	r.Each(func(_ int, t relation.Tuple) { out.MustAppend(t) })
	return out, nil
}

// Prefix returns r with every attribute name prefixed — the standard
// preparation before a cross product of relations sharing attribute
// names.
func Prefix(r *relation.Relation, prefix string) *relation.Relation {
	out := relation.New(r.Schema().Prefixed(prefix))
	r.Each(func(_ int, t relation.Tuple) { out.MustAppend(t) })
	return out
}

// Cross returns the cross product a × b. Attribute names must be
// disjoint (use Prefix).
func Cross(a, b *relation.Relation) (*relation.Relation, error) {
	schema, err := a.Schema().Concat(b.Schema())
	if err != nil {
		return nil, fmt.Errorf("relalg: cross: %w", err)
	}
	out := relation.New(schema)
	a.Each(func(_ int, ta relation.Tuple) {
		b.Each(func(_ int, tb relation.Tuple) {
			t := make(relation.Tuple, 0, len(ta)+len(tb))
			t = append(t, ta...)
			t = append(t, tb...)
			out.MustAppend(t)
		})
	})
	return out, nil
}

// CrossAll builds the denormalized instance of several prefixed source
// relations — the "varying number of involved relations" input to JIM.
func CrossAll(rels ...*relation.Relation) (*relation.Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("relalg: cross of zero relations")
	}
	acc := rels[0]
	var err error
	for _, r := range rels[1:] {
		acc, err = Cross(acc, r)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// JoinOn is an equality condition between an attribute of the left
// relation and one of the right relation.
type JoinOn struct {
	Left, Right string
}

// EquiJoin returns a ⋈ b on the given attribute equalities, with a
// simple hash join on the first condition and residual checks on the
// rest. Attribute names must be disjoint.
func EquiJoin(a, b *relation.Relation, on []JoinOn) (*relation.Relation, error) {
	if len(on) == 0 {
		return Cross(a, b)
	}
	schema, err := a.Schema().Concat(b.Schema())
	if err != nil {
		return nil, fmt.Errorf("relalg: join: %w", err)
	}
	li := make([]int, len(on))
	ri := make([]int, len(on))
	for k, c := range on {
		var ok bool
		if li[k], ok = a.Schema().Index(c.Left); !ok {
			return nil, fmt.Errorf("relalg: join: left attribute %q not found", c.Left)
		}
		if ri[k], ok = b.Schema().Index(c.Right); !ok {
			return nil, fmt.Errorf("relalg: join: right attribute %q not found", c.Right)
		}
	}
	// Hash build on b over the first key (GoString of the value keeps
	// SQL equality semantics: NULL hashes but never matches below).
	build := map[string][]int{}
	b.Each(func(j int, tb relation.Tuple) {
		build[tb[ri[0]].GoString()] = append(build[tb[ri[0]].GoString()], j)
	})
	out := relation.New(schema)
	a.Each(func(_ int, ta relation.Tuple) {
		for _, j := range build[ta[li[0]].GoString()] {
			tb := b.Tuple(j)
			match := true
			for k := range on {
				if !ta[li[k]].Equal(tb[ri[k]]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			t := make(relation.Tuple, 0, len(ta)+len(tb))
			t = append(t, ta...)
			t = append(t, tb...)
			out.MustAppend(t)
		}
	})
	return out, nil
}

// NaturalJoin returns a ⋈ b on all shared attribute names, projecting
// away the duplicate right-hand copies.
func NaturalJoin(a, b *relation.Relation) (*relation.Relation, error) {
	var shared []string
	for _, n := range b.Schema().Names() {
		if _, ok := a.Schema().Index(n); ok {
			shared = append(shared, n)
		}
	}
	if len(shared) == 0 {
		return Cross(a, b)
	}
	// Rename shared attributes on the right, equi-join, project away.
	rb := b
	var err error
	on := make([]JoinOn, len(shared))
	for k, n := range shared {
		tmp := "\x00natjoin." + n
		rb, err = Rename(rb, n, tmp)
		if err != nil {
			return nil, err
		}
		on[k] = JoinOn{Left: n, Right: tmp}
	}
	joined, err := EquiJoin(a, rb, on)
	if err != nil {
		return nil, err
	}
	var keep []string
	for _, n := range joined.Schema().Names() {
		if len(n) > 0 && n[0] == '\x00' {
			continue
		}
		keep = append(keep, n)
	}
	return Project(joined, keep...)
}

// Union returns a ∪ b under bag semantics; schemas must be equal.
func Union(a, b *relation.Relation) (*relation.Relation, error) {
	if !a.Schema().Equal(b.Schema()) {
		return nil, fmt.Errorf("relalg: union: schema mismatch %v vs %v", a.Schema(), b.Schema())
	}
	out := relation.New(a.Schema())
	a.Each(func(_ int, t relation.Tuple) { out.MustAppend(t) })
	b.Each(func(_ int, t relation.Tuple) { out.MustAppend(t) })
	return out, nil
}

// Distinct returns r with structural duplicates removed.
func Distinct(r *relation.Relation) *relation.Relation { return r.Distinct() }

// OrderBy returns r sorted by the named attributes ascending.
func OrderBy(r *relation.Relation, names ...string) (*relation.Relation, error) {
	idx, err := r.Schema().Indexes(names...)
	if err != nil {
		return nil, fmt.Errorf("relalg: order by: %w", err)
	}
	tuples := make([]relation.Tuple, r.Len())
	for i := range tuples {
		tuples[i] = r.Tuple(i)
	}
	sort.SliceStable(tuples, func(a, b int) bool {
		for _, i := range idx {
			if c := tuples[a][i].Compare(tuples[b][i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	sorted := relation.New(r.Schema())
	for _, t := range tuples {
		sorted.MustAppend(t)
	}
	return sorted, nil
}

// Limit returns the first n tuples of r (all of r if n exceeds its
// size; n < 0 is an error).
func Limit(r *relation.Relation, n int) (*relation.Relation, error) {
	if n < 0 {
		return nil, fmt.Errorf("relalg: limit %d < 0", n)
	}
	out := relation.New(r.Schema())
	r.Each(func(i int, t relation.Tuple) {
		if i < n {
			out.MustAppend(t)
		}
	})
	return out, nil
}

// Sample returns every k-th tuple of r starting at offset — a cheap
// deterministic thinning used to keep cross products tractable.
func Sample(r *relation.Relation, k, offset int) (*relation.Relation, error) {
	if k < 1 {
		return nil, fmt.Errorf("relalg: sample step %d < 1", k)
	}
	if offset < 0 {
		return nil, fmt.Errorf("relalg: sample offset %d < 0", offset)
	}
	out := relation.New(r.Schema())
	r.Each(func(i int, t relation.Tuple) {
		if i >= offset && (i-offset)%k == 0 {
			out.MustAppend(t)
		}
	})
	return out, nil
}
