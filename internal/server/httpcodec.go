package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	jim "repro"
	"repro/internal/relation"
	"repro/internal/values"
)

// The HTTP request codec: the replies of create, the session summary,
// /step, /next, /label, /topk and /tuples are appended by hand into one
// pooled buffer instead of encoded by reflection, and the create,
// /step, /label and /tuples bodies are read into that same buffer and
// decoded by a strict scanner. Both halves are held to encoding/json:
//
//   - A reply is byte-for-byte what json.Encoder with SetIndent("", "  ")
//     and HTML escaping made of the response structs this replaced:
//     members in struct order, a tuple's values keyed by column name in
//     sorted order (a JSON-encoded map), created_at as
//     time.Time.MarshalJSON formats it, empty containers as {} and [],
//     and a trailing newline. FuzzHTTPStepEncode and
//     TestSummaryMatchesEncodingJSON compare the two; the structs live
//     on in the tests as their reference.
//   - A request body takes the fast path only in the shape clients
//     send: one object of the exact field names, with JSON integers,
//     strings, null, or (for rows) arrays of arrays of strings as
//     values. A string may hold valid UTF-8 and the escapes \" \\ \/
//     \b \f \n \r \t and \uXXXX outside the surrogates. Every other
//     body — surrogate escapes, invalid UTF-8, case-folded or unknown
//     keys, floats, other nesting, trailing data, syntax errors — goes
//     to json.Unmarshal, so the accepted bodies and decoded values are
//     json.Unmarshal's by construction. The FuzzHTTP*Decode targets
//     hold the fast path to that.
//   - Strings are decoded in place, and only once the whole body is
//     known to take the fast path, so the fallback always sees the body
//     as sent. A create's csv and an append's cells are then views of
//     the buffer: relation.ReadCSVString and relation.ParseRows keep
//     nothing of their input, and the buffer outlives neither call.
//
// The cold paths (lists, stats, results, error envelopes) stay on
// writeJSON.

// httpBuf is one request's scratch: the request body, then the reply
// appended over it. index backs a decoded stepRequest.Index, so an
// answering step allocates no pointer; rows and cells back a decoded
// appendRequest.Rows.
type httpBuf struct {
	b     []byte
	index int
	rows  [][]string
	cells []string
}

var httpBufPool = sync.Pool{New: func() any { return &httpBuf{b: make([]byte, 0, 1024)} }}

func getHTTPBuf() *httpBuf { return httpBufPool.Get().(*httpBuf) }

// release returns hb to the pool, unless a rare huge body or reply (a
// large upload or top-k batch) grew it past jsonBufMaxCap. The rows
// scratch stays only while it holds at most one entry per 8 bytes of
// the buffer, so a body of tiny cells cannot leave the pool holding a
// scratch far larger than its buffer.
func (hb *httpBuf) release() {
	if cap(hb.b) > jsonBufMaxCap {
		return
	}
	if cap(hb.rows)+cap(hb.cells) > cap(hb.b)/8 {
		hb.rows, hb.cells = nil, nil
	}
	httpBufPool.Put(hb)
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

// decodeCreate reads and decodes a POST /v1/sessions body. A decoded
// CSV is a view of hb and is valid until hb is released.
func (hb *httpBuf) decodeCreate(body io.Reader, req *createRequest) error {
	if err := hb.readBody(body); err != nil {
		return err
	}
	*req = createRequest{}
	var csv rawString
	sc := newRequestScanner(hb.b)
	for sc.next() {
		switch string(sc.key) {
		case "csv":
			sc.storeRaw(&csv)
		case "strategy":
			sc.storeString(&req.Strategy)
		case "seed":
			n := int(req.Seed)
			sc.storeInt(&n)
			req.Seed = int64(n)
		default:
			sc.ok = false
		}
	}
	if !sc.ok {
		return unmarshalInto(hb.b, req)
	}
	req.CSV = csv.view()
	return nil
}

// decodeAppend reads and decodes a POST /tuples body. A decoded CSV
// and every decoded cell are views of hb, valid until hb is released;
// the rows are cut from hb's reused scratch.
func (hb *httpBuf) decodeAppend(body io.Reader, req *appendRequest) error {
	if err := hb.readBody(body); err != nil {
		return err
	}
	*req = appendRequest{}
	var csv rawString
	sc := newRequestScanner(hb.b)
	for sc.next() {
		switch string(sc.key) {
		case "csv":
			sc.storeRaw(&csv)
		case "rows":
			switch sc.kind {
			case kindArray:
				req.Rows = hb.scanRows(&sc)
			case kindNull:
				req.Rows = nil
			default:
				sc.ok = false
			}
		default:
			sc.ok = false
		}
	}
	if !sc.ok {
		return unmarshalInto(hb.b, req)
	}
	req.CSV = csv.view()
	if sc.escaped {
		for _, row := range req.Rows {
			for j, cell := range row {
				if strings.IndexByte(cell, '\\') >= 0 {
					row[j] = rawString{unsafe.Slice(unsafe.StringData(cell), len(cell)), true}.view()
				}
			}
		}
	}
	return nil
}

// scanRows scans the array of string arrays at sc's position into rows
// of cell views, their escapes still raw. Rows are cut from the cell
// scratch at full capacity, as wire.Reader.decodeRows cuts them: zero
// rows and zero-cell rows decode to empty, not nil, slices.
func (hb *httpBuf) scanRows(sc *requestScanner) [][]string {
	rows, cells := hb.rows[:0], hb.cells[:0]
	if rows == nil {
		rows, cells = [][]string{}, []string{}
	}
	sc.i++ // '['
	for sc.ok && sc.item(len(rows)) {
		if sc.peek() != '[' {
			sc.ok = false
			break
		}
		sc.i++
		n := 0
		for sc.ok && sc.item(n) {
			raw, ok := sc.stringValue()
			if !ok {
				sc.ok = false
				break
			}
			cells = append(cells, unsafe.String(unsafe.SliceData(raw.b), len(raw.b)))
			n++
		}
		rows = append(rows, cells[len(cells)-n:])
	}
	// Cut every row from the final cell array: a row taken before the
	// array last grew points into an older copy.
	off := 0
	for i, row := range rows {
		end := off + len(row)
		rows[i] = cells[off:end:end]
		off = end
	}
	hb.rows, hb.cells = rows, cells
	return rows
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
	kindArray
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
	// escaped records that some string value held an escape.
	escaped bool
	// The current member: its key, and its value — kind, with the
	// integer in n or the string in str. An array value is left for
	// the caller to scan from its opening bracket.
	key  []byte
	kind int
	n    int
	str  rawString
}

// rawString is a scanned JSON string: its contents as they appear in
// the body, and whether they hold escapes.
type rawString struct {
	b   []byte
	esc bool
}

// view decodes the string's escapes in place and returns its contents
// as a view of the body. Decoding overwrites the body, so it may run
// only once the whole body is known to take the fast path.
func (r rawString) view() string {
	b := r.b
	if r.esc {
		b = appendUnescaped(b[:0], b)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
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
	// Keys match field names exactly; one with an escape leaves the
	// fast path, like a case-folded one.
	key, ok := sc.stringValue()
	if !ok || key.esc {
		sc.ok = false
		return false
	}
	sc.key = key.b
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
		sc.str, ok = sc.stringValue()
	case c == '[':
		sc.kind = kindArray
		ok = true
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

// item moves to the next element of the array being scanned, n
// elements in, reporting false at its closing bracket or when the body
// left the fast path.
func (sc *requestScanner) item(n int) bool {
	sc.space()
	switch c := sc.peek(); {
	case c == ']':
		sc.i++
		return false
	case n == 0:
	case c == ',':
		sc.i++
		sc.space()
	default:
		sc.ok = false
		return false
	}
	return true
}

// storeInt stores an integer member into dst; null leaves dst as it
// is, the way json.Unmarshal treats null for a non-pointer field.
func (sc *requestScanner) storeInt(dst *int) {
	switch sc.kind {
	case kindInt:
		*dst = sc.n
	case kindNull:
	default:
		sc.ok = false
	}
}

// storeString stores a copy of a string member into dst; null leaves
// dst as it is. Its escapes are decoded into the copy, not the body.
func (sc *requestScanner) storeString(dst *string) {
	switch sc.kind {
	case kindString:
		if sc.str.esc {
			*dst = string(appendUnescaped(nil, sc.str.b))
		} else {
			*dst = string(sc.str.b)
		}
	case kindNull:
	default:
		sc.ok = false
	}
}

// storeRaw keeps a string member undecoded in dst, for a view once the
// body is accepted; null leaves dst as it is.
func (sc *requestScanner) storeRaw(dst *rawString) {
	switch sc.kind {
	case kindString:
		*dst = sc.str
	case kindNull:
	default:
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

// stringValue scans a string value: valid UTF-8 with the escapes
// appendUnescaped decodes exactly as json.Unmarshal does. Anything else
// — a control character, invalid UTF-8, an unknown escape, a \u
// escape of a surrogate — leaves the fast path.
func (sc *requestScanner) stringValue() (rawString, bool) {
	if sc.peek() != '"' {
		return rawString{}, false
	}
	start, esc := sc.i+1, false
	for i := start; i < len(sc.b); {
		if i+8 <= len(sc.b) {
			m := specialBytes(binary.LittleEndian.Uint64(sc.b[i:]))
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) / 8
		}
		c := sc.b[i]
		switch {
		case c == '"':
			sc.i = i + 1
			sc.escaped = sc.escaped || esc
			return rawString{sc.b[start:i], esc}, true
		case c == '\\':
			esc = true
			if i+1 == len(sc.b) {
				return rawString{}, false
			}
			switch sc.b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				r, ok := hex4(sc.b[i+2:])
				if !ok || utf16.IsSurrogate(r) {
					return rawString{}, false
				}
				i += 6
			default:
				return rawString{}, false
			}
		case c < 0x20:
			return rawString{}, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(sc.b[i:])
			if r == utf8.RuneError && size == 1 {
				return rawString{}, false
			}
			i += size
		}
	}
	return rawString{}, false
}

// specialBytes flags the bytes of w, read little-endian, that a string
// scan cannot step over: '"', '\\', control characters and non-ASCII.
// Each term is the classic SWAR test for a byte below a bound, whose
// lowest flag is always a true one, so the lowest set bit of the result
// marks the first such byte.
func specialBytes(w uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote, backslash := w^(ones*'"'), w^(ones*'\\')
	control := (w - ones*0x20) &^ w
	return (control | (quote-ones)&^quote | (backslash-ones)&^backslash | w) & highs
}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// appendUnescaped appends the decoded contents of a string stringValue
// accepted to dst. dst may be raw[:0]: every escape decodes to at most
// as many bytes as it spans, so the output never overtakes the input.
func appendUnescaped(dst, raw []byte) []byte {
	for {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			return append(dst, raw...)
		}
		dst = append(dst, raw[:i]...)
		switch c := raw[i+1]; c {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r, _ := hex4(raw[i+2:])
			dst = utf8.AppendRune(dst, r)
			raw = raw[i+6:]
			continue
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
		raw = raw[i+2:]
	}
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

// jsonContentType is the Content-Type header value of every reply,
// shared so setting it allocates nothing. Its length equals its
// capacity: a wrapper's Header().Add copies it instead of writing into
// it.
var jsonContentType = []string{"application/json"}

// chunkingBuffer is net/http's buffer before chunking
// (bufferBeforeChunkingSize): a reply no longer than it stays buffered
// until the handler returns, and net/http then sets its Content-Length
// itself; a longer one streams out, chunked unless the handler set the
// header.
const chunkingBuffer = 2048

// writeReply writes a finished JSON reply body; every reply body the
// server writes goes through it. Content-Length is set here only for
// replies net/http would otherwise chunk: formatting and storing the
// header costs two allocations, and short replies get it for free.
func writeReply(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if len(body) > chunkingBuffer {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// send finishes enc's reply and writes it.
func (hb *httpBuf) send(w http.ResponseWriter, status int, enc *jsonWriter) {
	hb.b = append(enc.b, '\n')
	writeReply(w, status, hb.b)
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
	enc.string(k)
	enc.b = append(enc.b, ':', ' ')
}

func (enc *jsonWriter) int(n int) { enc.b = strconv.AppendInt(enc.b, int64(n), 10) }

func (enc *jsonWriter) bool(v bool) { enc.b = strconv.AppendBool(enc.b, v) }

func (enc *jsonWriter) string(s string) { enc.b = appendJSONString(enc.b, s) }

// summary is a session's summary, the reply of create, import and GET
// /v1/sessions/{id} and an entry of the list. The schema is immutable,
// so a summary captured under the session's lock stays valid after it.
type summary struct {
	id       string
	strategy string
	created  time.Time
	schema   *relation.Schema
	// tuples = base + appended: the instance size at creation plus the
	// arrivals streamed in afterwards.
	tuples, base, appended       int
	labels, implied, informative int
	done                         bool
}

// summary writes a session summary.
func (enc *jsonWriter) summary(sum *summary) {
	enc.open('{')
	enc.key("id")
	enc.string(sum.id)
	enc.key("strategy")
	enc.string(sum.strategy)
	enc.key("created_at")
	// time.Time.MarshalJSON's layout; digits, signs, colons and ASCII
	// letters need no escaping.
	enc.b = append(enc.b, '"')
	enc.b = sum.created.AppendFormat(enc.b, time.RFC3339Nano)
	enc.b = append(enc.b, '"')
	enc.key("tuples")
	enc.int(sum.tuples)
	enc.key("base_tuples")
	enc.int(sum.base)
	enc.key("appended_tuples")
	enc.int(sum.appended)
	enc.key("attributes")
	enc.open('[')
	for i := 0; i < sum.schema.Len(); i++ {
		enc.elem()
		enc.string(sum.schema.Name(i))
	}
	enc.close(']')
	enc.key("labels")
	enc.int(sum.labels)
	enc.key("implied")
	enc.int(sum.implied)
	enc.key("informative")
	enc.int(sum.informative)
	enc.key("done")
	enc.bool(sum.done)
	enc.close('}')
}

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
	schema := rel.Schema()
	for _, c := range cols {
		enc.key(schema.Name(c))
		enc.cell(rel.Cell(i, c))
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
		enc.string(s)
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
