package relation_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/workload"
)

// TestReadCSVDoesNotPinInput: nothing a parsed relation keeps may point
// into the input string, so a session created from a large request
// body does not hold the body alive. Schema names and string cells are
// checked by data pointer, on the scanner path and on the encoding/csv
// fallback (quoted input).
func TestReadCSVDoesNotPinInput(t *testing.T) {
	for _, in := range []string{
		"From,To:string,Airline,n:int\nParis,Lille,AF,1\nLille,NYC,AA,2\n7,8,9,3\n",
		"From,To:string,Airline,n:int\n\"Paris\",Lille,AF,1\nLille,\"N,YC\",AA,2\n",
	} {
		in := strings.Clone(in)
		rel, err := relation.ReadCSV(strings.NewReader(in), relation.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		direct, _, err := relation.ReadCSVString(in, relation.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(in)))
		hi := lo + uintptr(len(in))
		pinned := func(what, s string) {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && lo <= p && p < hi {
				t.Errorf("%s %q points into the input", what, s)
			}
		}
		for _, r := range []*relation.Relation{rel, direct} {
			for i := 0; i < r.Schema().Len(); i++ {
				pinned("schema name", r.Schema().Name(i))
			}
			strs := 0
			for ti := 0; ti < r.Len(); ti++ {
				for _, v := range r.Tuple(ti) {
					if s, ok := v.AsString(); ok {
						pinned("string cell", s)
						strs++
					}
				}
			}
			if strs == 0 {
				t.Fatalf("%q: no string cells parsed", in)
			}
		}
	}
}

// intCSV renders rows×6 distinct integer cells under a plain header.
func intCSV(rows int) string {
	var b strings.Builder
	b.WriteString("a,b,c,d,e,f\n")
	for r := 0; r < rows; r++ {
		for c := 0; c < 6; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, r*6+c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReadCSVAllocs is the ingestion allocation guard of create: an
// int-only instance is read with a fixed number of allocations (the
// input copy, schema, typing, tuple list and one Value slab), whatever
// its row count — no allocation per row or per cell.
func TestReadCSVAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		in := intCSV(rows)
		return testing.AllocsPerRun(20, func() {
			rel, _, err := relation.ReadCSVTyped(strings.NewReader(in), relation.CSVOptions{})
			if err != nil || rel.Len() != rows {
				t.Fatalf("read %d rows: %v", rows, err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	if small != large {
		t.Errorf("ReadCSVTyped allocates %.0f times at 100 rows and %.0f at 1,000; want the same constant", small, large)
	}
	t.Logf("%.0f allocations per read", small)
}

// benchInstanceCSV renders a generated instance as the CSV a create
// uploads.
func benchInstanceCSV(tb testing.TB, family string, tuples int) string {
	rel, _, err := workload.Instance(family, workload.InstanceConfig{Tuples: tuples, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := relation.WriteCSV(&sb, rel); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// readFleet parses in into n live relations.
func readFleet(tb testing.TB, in string, n int) []*relation.Relation {
	fleet := make([]*relation.Relation, n)
	for i := range fleet {
		rel, _, err := relation.ReadCSVString(in, relation.CSVOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		fleet[i] = rel
	}
	return fleet
}

// scannableHeap returns the collector's count of scannable heap bytes
// after a full collection.
func scannableHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRelationHeapIsPointerFree is the pointer-free guard of the
// instance: with 64 bulk-wire create relations (1,250×6 synthetic
// integers) live, the heap the collector must scan grows by under
// 1 KiB per relation — a few slice and string headers per chunk, never
// a word per cell. Measured: 0.4 KiB with the columnar chunks (the
// schema, the relation and its chunk headers); 152 KiB when a chunk
// was a slab of pointer-carrying Values and a slice of tuple headers.
func TestRelationHeapIsPointerFree(t *testing.T) {
	const relations, bound = 64, 1024
	in := benchInstanceCSV(t, "synthetic", 1250)
	before := scannableHeap()
	fleet := readFleet(t, in, relations)
	grown := float64(scannableHeap()) - float64(before)
	runtime.KeepAlive(fleet)
	perRelation := grown / relations
	t.Logf("scannable heap grew %.0f bytes per relation", perRelation)
	if perRelation > bound {
		t.Fatalf("scannable heap grew %.0f bytes per %d-row relation, want under %d", perRelation, fleet[0].Len(), bound)
	}
}

// BenchmarkFleetGC times one forced full collection with a fleet of
// 200 full bulk-wire instances (5,000×6 synthetic integers) live: the
// collector's cost of the relations a server's sessions hold, which
// pointer-free chunks keep near that of an empty heap. It covers the
// relations only; the strategy package's BenchmarkSessionFleetGC adds
// the States over them. Measured on 2 cores: 0.44–0.56 ms per
// collection with columnar chunks, 48–59 ms with chunks of Values and
// tuple headers.
func BenchmarkFleetGC(b *testing.B) {
	fleet := readFleet(b, benchInstanceCSV(b, "synthetic", 5000), 200)
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	runtime.KeepAlive(fleet)
}

// BenchmarkReadCSVSynthetic reads a create-sized instance through the
// io.Reader entry point: 1,250×6 synthetic integers (the bulk-wire
// create) and the travel instance grown to 1,250 rows of strings.
func BenchmarkReadCSVSynthetic(b *testing.B) {
	for _, family := range []string{"synthetic", "travel"} {
		b.Run(family, func(b *testing.B) {
			in := benchInstanceCSV(b, family, 1250)
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := relation.ReadCSVTyped(strings.NewReader(in), relation.CSVOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
