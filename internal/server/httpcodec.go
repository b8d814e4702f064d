package server

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/values"
)

// The HTTP dialogue codec: the replies of /step, /next, /label, /topk
// and /tuples are appended by hand into one pooled buffer instead of
// encoded by reflection, and the /step and /label bodies are read into
// that same buffer and decoded by a strict scanner. Both halves are
// held to encoding/json:
//
//   - A reply is byte-for-byte what json.Encoder with SetIndent("", "  ")
//     and HTML escaping made of the response structs this replaced:
//     members in struct order, a tuple's values keyed by column name in
//     sorted order (a JSON-encoded map), empty containers as {} and [],
//     and a trailing newline. FuzzHTTPStepEncode compares the two on
//     arbitrary column names and cells; the structs live on in
//     httpcodec_test.go as its reference.
//   - A request body takes the fast path only in the shape clients
//     send: one flat object of the exact field names, with JSON
//     integers, plain ASCII strings, or null as values. Every other
//     body — escapes, case-folded or unknown keys, floats, nesting,
//     trailing data, syntax errors — goes to json.Unmarshal, so the
//     accepted bodies and decoded values are json.Unmarshal's by
//     construction. FuzzHTTPStepDecode holds the fast path to that.
//
// The cold paths (summaries, lists, stats, results, error envelopes)
// stay on writeJSON.

// httpBuf is one dialogue request's scratch: the request body, then
// the reply appended over it. index backs a decoded stepRequest.Index,
// so an answering step allocates no pointer.
type httpBuf struct {
	b     []byte
	index int
}

var httpBufPool = sync.Pool{New: func() any { return &httpBuf{b: make([]byte, 0, 1024)} }}

func getHTTPBuf() *httpBuf { return httpBufPool.Get().(*httpBuf) }

// release returns hb to the pool, unless a rare huge reply (a large
// top-k batch) grew it past jsonBufMaxCap.
func (hb *httpBuf) release() {
	if cap(hb.b) <= jsonBufMaxCap {
		httpBufPool.Put(hb)
	}
}

// readBody reads the whole request body into hb.b. The caller caps the
// body with limitBody; the cap's *http.MaxBytesError passes through.
func (hb *httpBuf) readBody(body io.Reader) error {
	b := hb.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			hb.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decodeStep reads and decodes a POST /step body. A decoded Index
// points into hb and is valid until hb is released.
func (hb *httpBuf) decodeStep(body io.Reader, req *stepRequest) error {
	if err := hb.readBody(body); err != nil {
		return err
	}
	*req = stepRequest{}
	sc := newRequestScanner(hb.b)
	for sc.next() {
		switch string(sc.key) {
		case "index":
			switch sc.kind {
			case kindInt:
				hb.index = sc.n
				req.Index = &hb.index
			case kindNull:
				req.Index = nil
			default:
				sc.ok = false
			}
		case "label":
			sc.storeString(&req.Label)
		case "k":
			sc.storeInt(&req.K)
		default:
			sc.ok = false
		}
	}
	if sc.ok {
		return nil
	}
	return unmarshalInto(hb.b, req)
}

// decodeLabel reads and decodes a POST /label body.
func (hb *httpBuf) decodeLabel(body io.Reader, req *labelRequest) error {
	if err := hb.readBody(body); err != nil {
		return err
	}
	*req = labelRequest{}
	sc := newRequestScanner(hb.b)
	for sc.next() {
		switch string(sc.key) {
		case "index":
			sc.storeInt(&req.Index)
		case "label":
			sc.storeString(&req.Label)
		default:
			sc.ok = false
		}
	}
	if sc.ok {
		return nil
	}
	return unmarshalInto(hb.b, req)
}

// unmarshalInto is the slow path: json.Unmarshal into a fresh value,
// copied to dst. Decoding into a copy keeps dst off the heap on the
// fast path.
func unmarshalInto[T any](b []byte, dst *T) error {
	var v T
	err := json.Unmarshal(b, &v)
	*dst = v
	return err
}

// Value kinds of the request fast path.
const (
	kindInt = iota + 1
	kindString
	kindNull
)

// requestScanner walks a request body in the fast-path shape, one
// member per next call. ok turns false at the first byte outside that
// shape, and stays true after the loop only when the closing brace and
// nothing but whitespace ended the body.
type requestScanner struct {
	b       []byte
	i       int
	ok      bool
	members int
	// The current member: its key, and its value — kind, with the
	// integer in n or the string's bytes (no escapes) in str.
	key  []byte
	kind int
	n    int
	str  []byte
}

func newRequestScanner(b []byte) requestScanner {
	sc := requestScanner{b: b}
	sc.space()
	sc.ok = sc.peek() == '{'
	sc.i++
	return sc
}

// next moves to the following member, reporting false at the end of
// the object or when the body left the fast path.
func (sc *requestScanner) next() bool {
	if !sc.ok {
		return false
	}
	sc.space()
	switch c := sc.peek(); {
	case c == '}':
		sc.i++
		sc.space()
		sc.ok = sc.i == len(sc.b)
		return false
	case sc.members == 0:
	case c == ',':
		sc.i++
		sc.space()
	default:
		sc.ok = false
		return false
	}
	var ok bool
	if sc.key, ok = sc.plainString(); !ok {
		sc.ok = false
		return false
	}
	sc.space()
	if sc.peek() != ':' {
		sc.ok = false
		return false
	}
	sc.i++
	sc.space()
	switch c := sc.peek(); {
	case c == '"':
		sc.kind = kindString
		sc.str, ok = sc.plainString()
	case c == 'n':
		sc.kind = kindNull
		ok = sc.i+4 <= len(sc.b) && string(sc.b[sc.i:sc.i+4]) == "null"
		sc.i += 4
	default:
		sc.kind = kindInt
		ok = sc.integer()
	}
	sc.ok = ok
	sc.members++
	return ok
}

// storeInt stores an integer member into dst; null leaves dst as it
// is, the way json.Unmarshal treats null for a non-pointer field.
func (sc *requestScanner) storeInt(dst *int) {
	switch sc.kind {
	case kindInt:
		*dst = sc.n
	case kindString:
		sc.ok = false
	}
}

// storeString stores a string member into dst; null leaves dst as it
// is.
func (sc *requestScanner) storeString(dst *string) {
	switch sc.kind {
	case kindString:
		*dst = string(sc.str)
	case kindInt:
		sc.ok = false
	}
}

func (sc *requestScanner) peek() byte {
	if sc.i < len(sc.b) {
		return sc.b[sc.i]
	}
	return 0
}

// space skips JSON whitespace.
func (sc *requestScanner) space() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// plainString scans a string of printable ASCII without escapes and
// returns its contents.
func (sc *requestScanner) plainString() ([]byte, bool) {
	if sc.peek() != '"' {
		return nil, false
	}
	start := sc.i + 1
	for i := start; i < len(sc.b); i++ {
		switch c := sc.b[i]; {
		case c == '"':
			sc.i = i + 1
			return sc.b[start:i], true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// integer scans a JSON integer of at most 18 digits into n; a fraction
// or exponent after it fails the member's delimiter check in next.
func (sc *requestScanner) integer() bool {
	neg := sc.peek() == '-'
	if neg {
		sc.i++
	}
	start := sc.i
	var v int64
	for sc.i < len(sc.b) && sc.b[sc.i] >= '0' && sc.b[sc.i] <= '9' {
		v = v*10 + int64(sc.b[sc.i]-'0')
		sc.i++
	}
	digits := sc.i - start
	if digits == 0 || digits > 18 || (digits > 1 && sc.b[start] == '0') {
		return false
	}
	if neg {
		v = -v
	}
	sc.n = int(v)
	return int64(sc.n) == v
}

// jsonWriter appends indented JSON laid out the way json.Encoder with
// SetIndent("", "  ") lays it out: one member or element per line, two
// spaces per nesting level, empty containers as {} and [].
type jsonWriter struct {
	b     []byte
	depth int
	empty bool // the innermost open container has no member yet
}

// encoder starts a reply in hb's buffer.
func (hb *httpBuf) encoder() jsonWriter { return jsonWriter{b: hb.b[:0]} }

// send finishes enc's reply and writes it with the headers writeJSON
// sets, status 200.
func (hb *httpBuf) send(w http.ResponseWriter, enc *jsonWriter) {
	hb.b = append(enc.b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(hb.b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(hb.b)
}

func (enc *jsonWriter) open(c byte) {
	enc.b = append(enc.b, c)
	enc.depth++
	enc.empty = true
}

func (enc *jsonWriter) close(c byte) {
	enc.depth--
	if !enc.empty {
		enc.newline()
	}
	enc.b = append(enc.b, c)
	enc.empty = false
}

// elem starts the next element or member of the open container.
func (enc *jsonWriter) elem() {
	if !enc.empty {
		enc.b = append(enc.b, ',')
	}
	enc.newline()
	enc.empty = false
}

func (enc *jsonWriter) newline() {
	enc.b = append(enc.b, '\n')
	for i := 0; i < enc.depth; i++ {
		enc.b = append(enc.b, ' ', ' ')
	}
}

func (enc *jsonWriter) key(k string) {
	enc.elem()
	enc.b = appendJSONString(enc.b, k)
	enc.b = append(enc.b, ':', ' ')
}

func (enc *jsonWriter) int(n int) { enc.b = strconv.AppendInt(enc.b, int64(n), 10) }

func (enc *jsonWriter) bool(v bool) { enc.b = strconv.AppendBool(enc.b, v) }

// stepReply writes the reply of POST /step and GET /next: applied
// (absent on a propose-only call), done, then the proposal — for k = 1
// the single tuple, for k > 1 the ranked batch, each absent when there
// is no proposal. done=true with no proposal means the session
// converged.
func (enc *jsonWriter) stepReply(applied *answered, done bool, rel *relation.Relation, cols, indices []int, k int) {
	enc.open('{')
	if applied != nil {
		enc.key("applied")
		enc.answered(applied)
	}
	enc.key("done")
	enc.bool(done)
	switch {
	case k > 1 && len(indices) > 0:
		enc.key("tuples")
		enc.tuples(rel, cols, indices)
	case k == 1 && len(indices) == 1:
		enc.key("tuple")
		enc.tuple(rel, cols, indices[0])
	}
	enc.close('}')
}

// topKReply writes the reply of GET /topk: done, and the ranked batch
// (an empty array when there is none).
func (enc *jsonWriter) topKReply(done bool, rel *relation.Relation, cols, indices []int) {
	enc.open('{')
	enc.key("done")
	enc.bool(done)
	enc.key("tuples")
	enc.tuples(rel, cols, indices)
	enc.close('}')
}

// appendReply writes the reply of POST /tuples.
func (enc *jsonWriter) appendReply(appended int, newly []int, p jim.Progress, done bool) {
	enc.open('{')
	enc.key("appended")
	enc.int(appended)
	enc.key("tuples")
	enc.int(p.Total)
	enc.progress(newly, p, done)
	enc.close('}')
}

// answered is what one accepted answer reports: the /label reply, and
// the applied block of a /step reply.
type answered struct {
	newly    []int
	progress jim.Progress
	done     bool
}

func (enc *jsonWriter) answered(a *answered) {
	enc.open('{')
	enc.progress(a.newly, a.progress, a.done)
	enc.close('}')
}

// progress writes the members an answer and an append batch both
// report: newly_implied, informative, done, progress.
func (enc *jsonWriter) progress(newly []int, p jim.Progress, done bool) {
	enc.key("newly_implied")
	enc.open('[')
	for _, i := range newly {
		enc.elem()
		enc.int(i)
	}
	enc.close(']')
	enc.key("informative")
	enc.int(p.Informative)
	enc.key("done")
	enc.bool(done)
	enc.key("progress")
	// The summary is digits, letters, spaces and "/(%),." — nothing
	// JSON escapes.
	enc.b = append(enc.b, '"')
	enc.b = p.AppendString(enc.b)
	enc.b = append(enc.b, '"')
}

// tuple writes one proposed tuple: its index and its values keyed by
// column name, in cols order (the schema's positions sorted by name).
func (enc *jsonWriter) tuple(rel *relation.Relation, cols []int, i int) {
	enc.open('{')
	enc.key("index")
	enc.int(i)
	enc.key("values")
	enc.open('{')
	schema, t := rel.Schema(), rel.Tuple(i)
	for _, c := range cols {
		enc.key(schema.Name(c))
		enc.cell(t[c])
	}
	enc.close('}')
	enc.close('}')
}

// tuples writes a ranked batch as an array of tuples.
func (enc *jsonWriter) tuples(rel *relation.Relation, cols []int, indices []int) {
	enc.open('[')
	for _, i := range indices {
		enc.elem()
		enc.tuple(rel, cols, i)
	}
	enc.close(']')
}

// cell writes a value as the JSON string of its String rendering.
func (enc *jsonWriter) cell(v values.Value) {
	if s, ok := v.AsString(); ok {
		enc.b = appendJSONString(enc.b, s)
		return
	}
	// Every other kind renders as digits, signs, dots and ASCII
	// letters, none of which JSON escapes.
	enc.b = append(enc.b, '"')
	enc.b = v.AppendString(enc.b)
	enc.b = append(enc.b, '"')
}

// sortedColumns returns the schema's column positions ordered by name:
// the key order encoding/json gives a map of column name to cell.
func sortedColumns(schema *relation.Schema) []int {
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	slices.SortFunc(cols, func(a, b int) int { return strings.Compare(schema.Name(a), schema.Name(b)) })
	return cols
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string escaped exactly as
// encoding/json escapes it with HTML escaping on: quote, backslash and
// control characters escaped (\b \f \n \r \t by name), <, > and & as
// \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029,
// and each invalid UTF-8 byte replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
