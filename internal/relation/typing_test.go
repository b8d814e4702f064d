package relation_test

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/values"
)

// TestTypingAnnotationsRoundTrip: the serializable form the durable
// session store records must rebuild a typing that parses every cell
// exactly like the original.
func TestTypingAnnotationsRoundTrip(t *testing.T) {
	csv := "name,price:float,qty:int,ok:bool\nwidget,1.5,3,true\n"
	_, ty, err := relation.ReadCSVTyped(strings.NewReader(csv), relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ann := ty.Annotations()
	want := []string{"", "float", "int", "bool"}
	if len(ann) != len(want) {
		t.Fatalf("annotations = %v, want %v", ann, want)
	}
	for i := range want {
		if ann[i] != want[i] {
			t.Fatalf("annotations = %v, want %v", ann, want)
		}
	}
	back, err := relation.TypingFromAnnotations(ann)
	if err != nil {
		t.Fatal(err)
	}
	for col, cell := range []string{"widget", "1.5", "3", "true"} {
		orig, err := ty.ParseCell(col, cell)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.ParseCell(col, cell)
		if err != nil {
			t.Fatal(err)
		}
		if !orig.Equal(got) {
			t.Errorf("column %d: %v parsed as %v, original %v", col, cell, got, orig)
		}
	}
	// A typed column must stay strict after the round trip.
	if _, err := back.ParseCell(1, "not-a-float"); err == nil {
		t.Error("restored typing lost strict float parsing")
	}
}

// TestTypedNullRoundTrip: EncodeCell spells NULL as "NULL", and every
// typed column must read that back as NULL — not as a parse error (int,
// float, bool) or as the string "NULL" (string) — like the other NULL
// spellings inference accepts. A typed WriteCSV → ReadCSV round trip
// therefore keeps its NULLs.
func TestTypedNullRoundTrip(t *testing.T) {
	kinds := []string{"int", "float", "bool", "string", "null"}
	ty, err := relation.TypingFromAnnotations(kinds)
	if err != nil {
		t.Fatal(err)
	}
	for col, k := range kinds {
		for _, cell := range []string{relation.EncodeCell(values.Null()), "null", ""} {
			v, err := ty.ParseCell(col, cell)
			if err != nil || !v.IsNull() {
				t.Errorf("%s column: %q parsed as %#v, %v; want NULL", k, cell, v, err)
			}
		}
	}

	in := "a:int,b:float,c:bool,d:string,e:null\n" +
		"1,2.5,true,x,\n" +
		",,,,\n" +
		"3,,false,,\n"
	rel, ty, err := relation.ReadCSVTyped(strings.NewReader(in), relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := relation.WriteCSV(&out, rel); err != nil {
		t.Fatal(err)
	}
	back, err := relation.ReadCSV(strings.NewReader(out.String()), relation.CSVOptions{Typing: ty})
	if err != nil {
		t.Fatalf("re-reading %q: %v", out.String(), err)
	}
	if back.Len() != rel.Len() {
		t.Fatalf("round trip kept %d of %d tuples", back.Len(), rel.Len())
	}
	for i := 0; i < rel.Len(); i++ {
		for c, v := range rel.Tuple(i) {
			if got := back.Tuple(i)[c]; !got.Identical(v) {
				t.Errorf("tuple %d column %d: %#v after the round trip, want %#v", i, c, got, v)
			}
		}
	}
}

// TestTypingAnnotationsEmpty: all-inference typings serialize to nil
// and restore to nil — "no pinned typing" survives the round trip.
func TestTypingAnnotationsEmpty(t *testing.T) {
	if ann := relation.InferenceTyping(4).Annotations(); ann != nil {
		t.Errorf("inference typing annotations = %v, want nil", ann)
	}
	var nilTyping *relation.Typing
	if ann := nilTyping.Annotations(); ann != nil {
		t.Errorf("nil typing annotations = %v, want nil", ann)
	}
	ty, err := relation.TypingFromAnnotations(nil)
	if err != nil || ty != nil {
		t.Errorf("TypingFromAnnotations(nil) = %v, %v; want nil, nil", ty, err)
	}
	if _, err := relation.TypingFromAnnotations([]string{"", "gibberish"}); err == nil {
		t.Error("unknown kind accepted")
	}
}
