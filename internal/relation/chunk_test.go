package relation

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/values"
)

// chunkTuples returns n random tuples of width 3 drawn from a small
// domain, so a batch holds duplicates (for Distinct) and ties (for
// Sort's stability).
func chunkTuples(r *rand.Rand, n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		t := make(Tuple, 3)
		for c := range t {
			switch r.Intn(4) {
			case 0:
				t[c] = values.Str([]string{"x", "y", "z"}[r.Intn(3)])
			case 1:
				t[c] = values.Null()
			default:
				t[c] = values.Int(int64(r.Intn(5)))
			}
		}
		out[i] = t
	}
	return out
}

// chunkSchedules are the batch-size sequences the chunk tests append:
// nothing, empty batches, single rows, many single rows, batches
// straddling smallChunk, and large batches.
func chunkSchedules(r *rand.Rand) []chunkSchedule {
	ones := make([]int, 1000)
	for i := range ones {
		ones[i] = 1
	}
	mixed := make([]int, 20)
	for i := range mixed {
		mixed[i] = []int{0, 1, 2, smallChunk - 1, smallChunk, smallChunk + 1, 700}[r.Intn(7)]
	}
	return []chunkSchedule{
		{"none", nil},
		{"empty", []int{0, 0, 0}},
		{"one row", []int{1}},
		{"1000 ones", ones},
		{"large", []int{1250, 937, 938, 937, 938}},
		{"small tail", []int{1250, 1, 1, 1, 3, 0, 2}},
		{"mixed", mixed},
	}
}

// mustBatch copies ts into a batch of the given arity.
func mustBatch(t testing.TB, arity int, ts []Tuple) *Batch {
	t.Helper()
	b, err := BatchOf(arity, ts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type chunkSchedule struct {
	name  string
	sizes []int
}

// TestChunkedRelationMatchesFlat appends random batch-size sequences —
// alternating the copying Append and the owning AppendBatch — and
// holds every reader against a flat reference slice after every batch:
// Len, Tuple, Each, Clone, Distinct, String and WriteCSV, then Sort.
// After a copying Append the caller's slice is overwritten, which the
// relation must not see.
func TestChunkedRelationMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	schema := MustSchema("a", "b", "c")
	for _, sc := range chunkSchedules(r) {
		name, sizes := sc.name, sc.sizes
		t.Run(name, func(t *testing.T) {
			rel := New(schema)
			var ref []Tuple
			for k, n := range sizes {
				batch := chunkTuples(r, n)
				ref = append(ref, batch...)
				if k%2 == 0 {
					rel.MustAppend(batch...)
					for i := range batch {
						batch[i] = Tuple{values.Int(-1), values.Int(-1), values.Int(-1)}
					}
				} else if err := rel.AppendBatch(mustBatch(t, 3, batch)); err != nil {
					t.Fatal(err)
				}
				// The full comparison is quadratic; on long schedules
				// take it at a sample of batches and at the end.
				if len(sizes) < 100 || k%97 == 0 || k == len(sizes)-1 {
					checkAgainstFlat(t, rel, ref)
				}
			}
			checkAgainstFlat(t, rel, ref)
			if name == "1000 ones" && len(rel.chunks) > 1000/smallChunk+1 {
				t.Errorf("1000 single-row appends left %d chunks", len(rel.chunks))
			}

			want := slices.Clone(ref)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
			rel.Sort()
			if len(rel.chunks) > 1 {
				t.Errorf("Sort left %d chunks", len(rel.chunks))
			}
			checkAgainstFlat(t, rel, want)
		})
	}
}

// checkAgainstFlat holds every reader of rel against ref, the same
// tuples in one slice.
func checkAgainstFlat(t *testing.T, rel *Relation, ref []Tuple) {
	t.Helper()
	if rel.Len() != len(ref) {
		t.Fatalf("Len %d, want %d", rel.Len(), len(ref))
	}
	for i, want := range ref {
		if got := rel.Tuple(i); !got.Identical(want) {
			t.Fatalf("Tuple(%d) = %v, want %v", i, got, want)
		}
	}
	next := 0
	rel.Each(func(i int, tu Tuple) {
		if i != next || !tu.Identical(ref[i]) {
			t.Fatalf("Each yielded %d: %v, want %d: %v", i, tu, next, ref[next])
		}
		next++
	})
	if next != len(ref) {
		t.Fatalf("Each yielded %d tuples, want %d", next, len(ref))
	}
	flat := New(rel.Schema())
	flat.MustAppend(ref...)

	clone := rel.Clone()
	if clone.Len() != len(ref) || len(clone.chunks) > 1 {
		t.Fatalf("Clone has %d tuples in %d chunks", clone.Len(), len(clone.chunks))
	}
	for i, want := range ref {
		got := clone.Tuple(i)
		if !got.Identical(want) || len(got) > 0 && &got[0] == &want[0] {
			t.Fatalf("Clone tuple %d = %v, want a copy of %v", i, got, want)
		}
	}

	seen := map[string]bool{}
	var distinct []Tuple
	for _, tu := range ref {
		if k := tu.Key(); !seen[k] {
			seen[k] = true
			distinct = append(distinct, tu)
		}
	}
	d := rel.Distinct()
	if d.Len() != len(distinct) {
		t.Fatalf("Distinct has %d tuples, want %d", d.Len(), len(distinct))
	}
	for i, want := range distinct {
		if !d.Tuple(i).Identical(want) {
			t.Fatalf("Distinct tuple %d = %v, want %v", i, d.Tuple(i), want)
		}
	}

	if got, want := rel.String(), flat.String(); got != want {
		t.Fatalf("String:\n%s\nwant:\n%s", got, want)
	}

	var got, want bytes.Buffer
	if err := WriteCSV(&got, rel); err != nil {
		t.Fatal(err)
	}
	cw := csv.NewWriter(&want)
	cw.Write(rel.Schema().Names())
	for _, tu := range ref {
		rec := make([]string, len(tu))
		for c, v := range tu {
			rec[c] = EncodeCell(v)
		}
		cw.Write(rec)
	}
	cw.Flush()
	if got.String() != want.String() {
		t.Fatalf("WriteCSV:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestChunkedRelationConcurrentReaders runs every read path at once
// over a many-chunk relation. Sessions read their instance under a
// shared lock, so under -race this fails if any read path writes to
// the relation.
func TestChunkedRelationConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rel := New(MustSchema("a", "b", "c"))
	for range 12 {
		if err := rel.AppendBatch(mustBatch(t, 3, chunkTuples(r, smallChunk+1+r.Intn(50)))); err != nil {
			t.Fatal(err)
		}
		rel.MustAppend(chunkTuples(r, r.Intn(3))...)
	}
	if len(rel.chunks) < 12 {
		t.Fatalf("precondition: %d chunks", len(rel.chunks))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < rel.Len(); i += 97 {
				_ = rel.Tuple(i)
			}
			n := 0
			rel.Each(func(int, Tuple) { n++ })
			rel.EachBatch(func(int, *Batch) {})
			if n != rel.Len() || rel.Clone().Len() != n || rel.Distinct().Len() > n {
				t.Errorf("reader %d saw %d tuples of %d", g, n, rel.Len())
			}
			_ = rel.String()
			var b strings.Builder
			if err := WriteCSV(&b, rel); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestHeldCellsSurviveAppends holds string cells materialised from a
// small last chunk while rows with new strings keep landing on it, so
// its arena grows in place and is reallocated: a held Value must keep
// its contents, as must every tuple read back.
func TestHeldCellsSurviveAppends(t *testing.T) {
	rel := New(MustSchema("a", "b"))
	var held []Tuple
	for i := range 3 * smallChunk {
		s := strings.Repeat(string(rune('a'+i%26)), 1+i%7)
		rel.MustAppend(Tuple{values.Str(s), values.Int(int64(i))})
		if i%97 == 0 {
			held = append(held, rel.Tuple(i))
		}
	}
	for k, tu := range held {
		i := k * 97
		want := Tuple{values.Str(strings.Repeat(string(rune('a'+i%26)), 1+i%7)), values.Int(int64(i))}
		if !tu.Identical(want) || !rel.Tuple(i).Identical(want) {
			t.Fatalf("tuple %d held as %v, reads %v, want %v", i, tu, rel.Tuple(i), want)
		}
	}
}
