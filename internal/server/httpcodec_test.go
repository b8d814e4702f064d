package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"math/rand"
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

// decodeEscapeBodies are strings every body decoder meets in its
// seed corpus: each escape json.Unmarshal knows — the fast path's and
// the surrogates it leaves to the fallback — raw non-ASCII, invalid
// UTF-8, control characters and broken escapes.
var decodeEscapeBodies = []string{
	`q\"b\\s\/f\b\f\n\r\t`, `Aé€&<> \u0000�ꯍ`,
	`😀`, `\ud800`, `\udc00x`, `\ud83dA`, `é,ü\n€,😀`, "\xff\xfe", "\xed\xa0\x80",
	"a\xc3", "a\nb", "a\x7fb", `\x`, `\u12`, `\u12G4`, `\`, `\u`, `a,b\n1,2\n`,
}

// FuzzHTTPCreateDecode holds decodeCreate to json.Unmarshal: the same
// bodies accepted with the same error, and the same decoded request.
func FuzzHTTPCreateDecode(f *testing.F) {
	for _, s := range decodeEscapeBodies {
		f.Add([]byte(`{"csv":"` + s + `","strategy":"` + s + `","seed":3}`))
	}
	for _, body := range []string{
		``, `{}`, `null`, `[]`, `"csv"`, `{"csv":"a,b\n1,2\n","strategy":"lookahead-maxmin","seed":7}`,
		`{"seed":7,"strategy":"random","csv":"x\n1"}`, "{\"csv\":\"a\nb\"}",
		`{"CSV":"a"}`, `{"Csv":"a","SEED":1}`, `{"ſeed":1}`, `{"strategy":"x","Strategy":"y"}`, `{"csv":"a"}`,
		`{"csv":"a","csv":"b"}`, `{"seed":1,"seed":null}`, `{"csv":"a","csv":null}`, `{"strategy":"a\n","strategy":null}`,
		`{"csv":null,"strategy":null,"seed":null}`, `{"csv":["a"]}`, `{"csv":{"a":1}}`, `{"seed":[1]}`,
		`{"other":{"x":[1,2]}}`, `{"csv":"a"} x`, `{"csv":"a"}{"csv":"b"}`, "{\"csv\":\"a\"}\n\t ",
		`{"csv":"a\n1","rows":[["1"]]}`, `{"seed":1.5}`, `{"seed":"1"}`, `{"seed":-0}`, `{"seed":1e3}`,
		`{"seed":-9223372036854775808}`, `{"seed":123456789012345678}`, `{"seed":99999999999999999999}`,
		`{"csv":"a",}`, `{"csv":"a"`, `{"csv":"a`, `{"csv":true}`, ` { "csv" : "a\tb" , "seed" : -2 } `,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		hb := &httpBuf{}
		var got, want createRequest
		gotErr := hb.decodeCreate(bytes.NewReader(body), &got)
		wantErr := json.Unmarshal(body, &want)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("create %q: error %v, json.Unmarshal %v", body, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("create %q: decoded %+v, json.Unmarshal %+v", body, got, want)
		}
	})
}

// FuzzHTTPAppendDecode holds decodeAppend to json.Unmarshal: the same
// bodies accepted with the same error, and the same decoded request —
// nil and empty rows told apart. One buffer decodes every body twice,
// so the reused rows scratch is exercised too.
func FuzzHTTPAppendDecode(f *testing.F) {
	for _, s := range decodeEscapeBodies {
		f.Add([]byte(`{"rows":[["` + s + `","b"],["` + s + `"]],"csv":"` + s + `"}`))
	}
	for _, body := range []string{
		``, `{}`, `null`, `[]`, `{"rows":[["Rome","Oslo","AZ","Rome","AZ"]]}`, `{"rows":[]}`, `{"rows":[[]]}`,
		`{"rows":[[],["a"]]}`, `{"rows":null}`, `{"rows":[null]}`, `{"rows":[["a",null]]}`, `{"rows":[["a",1]]}`,
		`{"rows":[["a"],"b"]}`, `{"rows":[["a"]],"rows":[["b","c"]]}`, `{"rows":[["a","b"]],"rows":[["c"]]}`,
		`{"rows":[["x"]],"rows":[[null]]}`, `{"rows":[["x"]],"rows":null}`, `{"rows":null,"rows":[]}`,
		`{"csv":"a\n1","rows":[["1"]]}`, `{"csv":"a\n1"}`, `{"csv":null}`, `{"Rows":[["a"]]}`, `{"ROWS":[]}`,
		`{"rows":[["a"],]}`, `{"rows":[["a",]]}`, `{"rows":[,["a"]]}`, `{"rows":[[,"a"]]}`, `{"rows":[[["a"]]]}`,
		`{"rows":[["a"]]} x`, `{"rows":[["a"]]}{"rows":[]}`, `{"rows":{"a":1}}`, `{"rows":"a"}`, `{"rows":1}`,
		` { "rows" : [ [ "a" , "b" ] , [ ] ] } `, "{\"rows\":[[\"\xff\"]]}", `{"rows":[["a"]`, `{"rows":[["a"`,
		`{"rows":[["a&b","c\\d"]],"other":1}`, `{"rows":[["é"]],"rows":[["e\n"]]}`,
	} {
		f.Add([]byte(body))
	}
	hb := &httpBuf{}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want appendRequest
		wantErr := json.Unmarshal(body, &want)
		for pass := 0; pass < 2; pass++ {
			var got appendRequest
			gotErr := hb.decodeAppend(bytes.NewReader(body), &got)
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("append %q: error %v, json.Unmarshal %v", body, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("append %q: decoded %#v, json.Unmarshal %#v", body, got, want)
			}
		}
	})
}

// TestSpecialBytes holds the SWAR string-scan test to a byte loop: the
// lowest flagged byte must be the first byte that is '"', '\\', a
// control character or non-ASCII, and no flag may be set without one.
func TestSpecialBytes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	interesting := []byte{0, 0x1f, 0x20, 0x21, '"', '#', '[', '\\', ']', 0x7e, 0x7f, 0x80, 0xc3, 0xff}
	for trial := 0; trial < 200000; trial++ {
		var b [8]byte
		for i := range b {
			if r.Intn(3) == 0 {
				b[i] = interesting[r.Intn(len(interesting))]
			} else {
				b[i] = byte(r.Intn(256))
			}
		}
		first := 8
		for i, c := range b {
			if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
				first = i
				break
			}
		}
		m := specialBytes(binary.LittleEndian.Uint64(b[:]))
		if got := bits.TrailingZeros64(m) / 8; got != first {
			t.Fatalf("specialBytes(%q) = %#x: first special byte at %d, want %d", b, m, got, first)
		}
	}
}
