package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/values"
)

// The response structs the hand-written encoders replaced. encoding/json
// with the writeJSON settings is the reference: every encoder must
// reproduce its bytes exactly.

type tupleView struct {
	Index  int               `json:"index"`
	Values map[string]string `json:"values"`
}

type labelResponse struct {
	NewlyImplied []int  `json:"newly_implied"`
	Informative  int    `json:"informative"`
	Done         bool   `json:"done"`
	Progress     string `json:"progress"`
}

type stepResponse struct {
	Applied *labelResponse `json:"applied,omitempty"`
	Done    bool           `json:"done"`
	Tuple   *tupleView     `json:"tuple,omitempty"`
	Tuples  []tupleView    `json:"tuples,omitempty"`
}

type appendResponse struct {
	Appended     int    `json:"appended"`
	Tuples       int    `json:"tuples"`
	NewlyImplied []int  `json:"newly_implied"`
	Informative  int    `json:"informative"`
	Done         bool   `json:"done"`
	Progress     string `json:"progress"`
}

// referenceJSON encodes v as writeJSON does.
func referenceJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func referenceTuple(rel *relation.Relation, i int) tupleView {
	vals := make(map[string]string, rel.Schema().Len())
	for c, name := range rel.Schema().Names() {
		vals[name] = rel.Tuple(i)[c].String()
	}
	return tupleView{Index: i, Values: vals}
}

func referenceAnswer(a *answered) *labelResponse {
	newly := a.newly
	if newly == nil {
		newly = []int{}
	}
	return &labelResponse{NewlyImplied: newly, Informative: a.progress.Informative, Done: a.done, Progress: a.progress.String()}
}

// encoded runs one encoder and returns its reply as send writes it.
func encoded(write func(enc *jsonWriter)) []byte {
	enc := jsonWriter{}
	write(&enc)
	return append(enc.b, '\n')
}

// fuzzSep splits a fuzz string into column names or cells.
const fuzzSep = "\x1f"

// fuzzRelation builds a relation from fuzzed column names and cells:
// names deduplicated (a schema rejects repeats, which a JSON map would
// collapse), cells cycled across three tuples, every other column
// typed by values.Parse so every value kind shows up.
func fuzzRelation(t *testing.T, names, cells string) *relation.Relation {
	t.Helper()
	seen := map[string]bool{}
	var cols []string
	for _, n := range strings.Split(names, fuzzSep) {
		if n != "" && !seen[n] {
			seen[n] = true
			cols = append(cols, n)
		}
	}
	if len(cols) == 0 {
		cols = []string{"a"}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	cs := strings.Split(cells, fuzzSep)
	for r := 0; r < 3; r++ {
		tuple := make(relation.Tuple, len(cols))
		for c := range tuple {
			cell := cs[(r*len(cols)+c)%len(cs)]
			if c%2 == 0 {
				tuple[c] = values.Str(cell)
			} else {
				tuple[c] = values.Parse(cell)
			}
		}
		if err := rel.Append(tuple); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// FuzzHTTPStepEncode holds every dialogue reply encoder to
// encoding/json's indented, HTML-escaped encoding of the structs above,
// over arbitrary column names and cells: invalid UTF-8, control
// characters, <>&, U+2028/2029, quotes and backslashes included.
func FuzzHTTPStepEncode(f *testing.F) {
	f.Add("From\x1fTo\x1fAirline", "Paris\x1fLille\x1fAF", uint8(2), uint16(1), uint16(3), uint16(8), false, uint8(1))
	f.Add("a<b>&c\x1f\u2028\x1fq\"uote\\", "<script>&amp;\x1f\u2029\x1f\"\\\x00\x1f\b\f\n\r\t\x7f", uint8(0), uint16(0), uint16(0), uint16(0), true, uint8(3))
	f.Add("\xff\xfe\x1f\xc3\x28\x1fok", "\xed\xa0\x80\x1f42\x1f-1.5e300\x1ftrue\x1fNULL\x1f", uint8(5), uint16(7), uint16(0), uint16(2), false, uint8(0))
	f.Add("b\x1fa\x1fB\x1fA\x1fé", "1\x1f2\x1f3", uint8(1), uint16(3), uint16(3), uint16(3), true, uint8(2))
	f.Fuzz(func(t *testing.T, names, cells string, newly uint8, explicit, implied, informative uint16, done bool, k uint8) {
		rel := fuzzRelation(t, names, cells)
		cols := sortedColumns(rel.Schema())
		a := &answered{
			progress: jim.Progress{
				Total:    int(explicit) + int(implied) + int(informative),
				Explicit: int(explicit), Implied: int(implied), Informative: int(informative),
			},
			done: done,
		}
		for i := 0; i < int(newly%8); i++ {
			a.newly = append(a.newly, i*int(explicit))
		}
		indices := []int{2, 0, 1}[:int(k)%4]

		check := func(name string, got []byte, want any) {
			t.Helper()
			if w := referenceJSON(t, want); !bytes.Equal(got, w) {
				t.Fatalf("%s:\n got %q\nwant %q", name, got, w)
			}
		}

		// POST /step with and without an answer, single and batched,
		// and GET /next.
		for _, applied := range []*answered{nil, a} {
			for _, k := range []int{1, 3} {
				want := stepResponse{Done: done}
				if applied != nil {
					want.Applied = referenceAnswer(applied)
				}
				if k > 1 {
					for _, i := range indices {
						want.Tuples = append(want.Tuples, referenceTuple(rel, i))
					}
				} else if len(indices) == 1 {
					tv := referenceTuple(rel, indices[0])
					want.Tuple = &tv
				}
				check("step", encoded(func(enc *jsonWriter) { enc.stepReply(applied, done, rel, cols, indices, k) }), want)
			}
		}

		check("label", encoded(func(enc *jsonWriter) { enc.answered(a) }), referenceAnswer(a))

		tuples := make([]tupleView, 0, len(indices))
		for _, i := range indices {
			tuples = append(tuples, referenceTuple(rel, i))
		}
		check("topk", encoded(func(enc *jsonWriter) { enc.topKReply(done, rel, cols, indices) }),
			map[string]any{"tuples": tuples, "done": done})

		ra := referenceAnswer(a)
		check("append", encoded(func(enc *jsonWriter) { enc.appendReply(int(k), a.newly, a.progress, done) }), appendResponse{
			Appended: int(k), Tuples: a.progress.Total, NewlyImplied: ra.NewlyImplied,
			Informative: ra.Informative, Done: ra.Done, Progress: ra.Progress,
		})
	})
}

// FuzzHTTPStepDecode holds the request decoders to json.Unmarshal: the
// same bodies accepted with the same error, and the same decoded value.
func FuzzHTTPStepDecode(f *testing.F) {
	for _, body := range []string{
		``, `{}`, ` { } `, `null`, `{"index":1,"label":"+"}`, "{\"index\":1,\"label\":\"-\"}\n",
		`{"index":0,"label":"skip","k":3}`, `{"k":2}`, `{"index":null,"label":"+"}`,
		`{"index":1,"index":null}`, `{"index":null,"index":4}`, `{"label":null}`, `{"k":null}`,
		`{"index":-0}`, `{"index":-7}`, `{"index":007}`, `{"index":1.0}`, `{"index":1e2}`,
		`{"index":123456789012345678}`, `{"index":1234567890123456789}`, `{"index":99999999999999999999}`,
		`{"index":"1"}`, `{"label":1}`, `{"label":true}`, `{"index":[1]}`, `{"index":{}}`,
		`{"K":2}`, `{"Index":1,"LABEL":"+"}`, `{"\u006b":2}`, `{"label":"\u002b"}`, `{"label":"sk\"ip"}`,
		`{"other":1,"index":2,"label":"-"}`, `{"index":1,"label":"+"}{"index":2,"label":"-"}`,
		`{"index":1,"label":"+"} x`, `{"index":1,}`, `{,"index":1}`, `{"index" 1}`, `{"index":1 "k":2}`,
		`{"index":1`, `{"label":"+`, `{"label":"é"}`, "{\"label\":\"\xff\"}", "{\"label\":\"a\tb\"}",
		`[{"index":1}]`, `"index"`, "\t{\r\n\"index\"\t:\n5 ,\"label\" : \"n\"\r}\n ", `{"index":nul}`, `{"index":nullx}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		hb := &httpBuf{}
		var gotStep, wantStep stepRequest
		gotErr := hb.decodeStep(bytes.NewReader(body), &gotStep)
		wantErr := json.Unmarshal(body, &wantStep)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("step %q: error %v, json.Unmarshal %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(gotStep, wantStep) {
			t.Fatalf("step %q: decoded %+v, json.Unmarshal %+v", body, gotStep, wantStep)
		}

		var gotLabel, wantLabel labelRequest
		gotErr = hb.decodeLabel(bytes.NewReader(body), &gotLabel)
		wantErr = json.Unmarshal(body, &wantLabel)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("label %q: error %v, json.Unmarshal %v", body, gotErr, wantErr)
		}
		if gotErr == nil && gotLabel != wantLabel {
			t.Fatalf("label %q: decoded %+v, json.Unmarshal %+v", body, gotLabel, wantLabel)
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
