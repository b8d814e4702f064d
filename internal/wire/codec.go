package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	jim "repro"
	"repro/internal/codec"
)

// The codec: hand-rolled encode/decode over length-prefixed frames,
// allocation-free in steady state, built on the shared varint cursor
// primitives of internal/codec (the same primitives that frame the
// store's on-disk format v2). A Reader owns one reusable frame buffer
// and decodes requests into a caller-held Request whose slices are
// reused; a Writer assembles each payload in one reusable scratch
// slice. Hot-path fields (session id, answers, append rows) are views
// into the frame buffer, valid until the next read; the cold-path
// strings (strategy, CSV, error messages) are copied out. DESIGN.md §9
// documents the ownership contract.

const (
	statusOK  = 0
	statusErr = 1
)

// Reader decodes frames from a byte stream. Not safe for concurrent
// use; each connection owns one.
type Reader struct {
	br  *bufio.Reader
	max int
	buf []byte
	// rows and cells are append-decode scratch: a frame's rows are cut
	// from cells, whose strings are views into buf.
	rows  [][]string
	cells []string
}

// maxRetainedFrame is the largest frame whose buffer and decode
// scratch a Reader keeps for the next frame. A larger frame gets a
// buffer of its own that lives only as long as what was decoded from
// it, so one huge request does not leave its connection holding up to
// the frame cap for good. 1 MiB is far above a bulk append batch.
const maxRetainedFrame = 1 << 20

// NewReader wraps r with a frame cap (<= 0 means DefaultMaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{br: bufio.NewReader(r), max: maxFrame}
}

// Buffered reports how many undecoded bytes are already in memory —
// the connection handler's flush heuristic: respond-and-flush when 0,
// keep filling the write buffer while more pipelined frames wait.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// frame reads one length-prefixed payload into the reusable buffer,
// or into a buffer of its own above maxRetainedFrame. The returned
// slice is valid until the next frame call. io.EOF is returned only at
// a clean frame boundary; a stream ending mid-frame is ErrTruncated.
// The declared length is checked against the cap before any
// allocation, so a hostile length cannot balloon memory.
func (r *Reader) frame() ([]byte, error) {
	if _, err := r.br.Peek(1); err != nil {
		return nil, err // clean EOF (or the transport's own error)
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: length varint cut short", ErrTruncated)
		}
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if n > uint64(r.max) {
		return nil, fmt.Errorf("%w: %d bytes declared, cap %d", ErrFrameTooLarge, n, r.max)
	}
	b := r.buf
	switch {
	case n > maxRetainedFrame:
		b = make([]byte, n)
	case uint64(cap(b)) < n:
		r.buf = make([]byte, n)
		b = r.buf
	}
	b = b[:n]
	if _, err := io.ReadFull(r.br, b); err != nil {
		return nil, fmt.Errorf("%w: %d payload bytes declared, stream ended early", ErrTruncated, n)
	}
	return b, nil
}

// Request is one decoded request frame. A single Request is reused
// across ReadRequest calls: ID and the cells of Rows alias the frame
// buffer, and Answers and Rows reuse their backing arrays, so all
// three are valid only until the next read — the next frame overwrites
// the bytes a kept cell shows. Callers that keep anything copy it.
// Cold-path fields (Strategy, CSV) are copied and safe to keep.
type Request struct {
	Op Op
	// ID is the session id — a view into the frame buffer.
	ID []byte
	// Create fields.
	Strategy string
	Seed     int64
	CSV      string
	// Step fields.
	K       int
	Answers []Answer
	// Append field: views into the frame buffer.
	Rows [][]string
}

// ReadRequest decodes the next request frame into req (reusing its
// slices). io.EOF means the peer closed cleanly between frames.
func (r *Reader) ReadRequest(req *Request) error {
	b, err := r.frame()
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	req.Op = Op(b[0])
	req.ID = nil
	req.Strategy, req.CSV = "", ""
	req.Seed = 0
	req.K = 0
	req.Answers = req.Answers[:0]
	req.Rows = nil
	c := codec.Cursor{B: b[1:]}
	switch req.Op {
	case OpCreate:
		if req.Strategy, err = c.Str(); err != nil {
			return err
		}
		if req.Seed, err = c.Varint(); err != nil {
			return err
		}
		if req.CSV, err = c.Str(); err != nil {
			return err
		}
	case OpStep:
		if req.ID, err = c.Bytes(); err != nil {
			return err
		}
		if req.K, err = c.Sint(); err != nil {
			return err
		}
		n, err := c.Count(2) // an answer is at least index varint + label byte
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			idx, err := c.Sint()
			if err != nil {
				return err
			}
			lb, err := c.Byte()
			if err != nil {
				return err
			}
			if !Label(lb).Valid() {
				return fmt.Errorf("%w: unknown label byte %d", ErrMalformed, lb)
			}
			req.Answers = append(req.Answers, Answer{Index: idx, Label: Label(lb)})
		}
	case OpAppend:
		if req.ID, err = c.Bytes(); err != nil {
			return err
		}
		if req.Rows, err = r.decodeRows(len(b), &c); err != nil {
			return err
		}
	case OpResult, OpDelete:
		if req.ID, err = c.Bytes(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, byte(req.Op))
	}
	return c.Done()
}

// decodeRows decodes an append frame's row list from c, a cursor over
// a frame of size bytes. Each cell is a view into the frame buffer, and
// rows are cut from the Reader's cell scratch at full capacity, so
// appending to one copies it instead of overwriting its neighbour.
// After warm-up a frame decodes with no allocation.
func (r *Reader) decodeRows(size int, c *codec.Cursor) ([][]string, error) {
	nrows, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	// Zero rows and zero-cell rows decode to empty, not nil, slices.
	rows, cells := r.rows[:0], r.cells[:0]
	if rows == nil {
		rows, cells = [][]string{}, []string{}
	}
	for i := 0; i < nrows; i++ {
		n, err := c.Count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			cell, err := c.Bytes()
			if err != nil {
				return nil, err
			}
			cells = append(cells, unsafe.String(unsafe.SliceData(cell), len(cell)))
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
	// Keep the scratch for the next frame only after a frame whose
	// buffer is kept too, and only while it has at most one entry per
	// two frame bytes, so a frame of tiny cells cannot leave the
	// connection holding a scratch far larger than its buffer.
	if size <= maxRetainedFrame && cap(cells)+cap(rows) <= cap(r.buf)/2 {
		r.rows, r.cells = rows, cells
	} else {
		r.rows, r.cells = nil, nil
	}
	return rows, nil
}

// Writer encodes frames onto a byte stream. Not safe for concurrent
// use; each connection owns one. Frames are buffered: call Flush to
// push them to the transport (the connection handler flushes once the
// pipelined request backlog drains).
type Writer struct {
	bw      *bufio.Writer
	max     int
	scratch []byte
	// hdr is the frame-length varint scratch. A field, not a local:
	// a local array passed to bufio's Write escapes (the underlying
	// io.Writer is an interface), costing one allocation per frame.
	hdr [binary.MaxVarintLen64]byte
}

// NewWriter wraps w with a frame cap (<= 0 means DefaultMaxFrame).
func NewWriter(w io.Writer, maxFrame int) *Writer {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Writer{bw: bufio.NewWriter(w), max: maxFrame}
}

// Flush pushes buffered frames to the transport.
func (w *Writer) Flush() error { return w.bw.Flush() }

// frame writes one length-prefixed payload.
func (w *Writer) frame(payload []byte) error {
	if len(payload) > w.max {
		return fmt.Errorf("%w: %d bytes, cap %d", ErrFrameTooLarge, len(payload), w.max)
	}
	n := binary.PutUvarint(w.hdr[:], uint64(len(payload)))
	if _, err := w.bw.Write(w.hdr[:n]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// WriteCreate encodes a create request.
func (w *Writer) WriteCreate(csv, strategy string, seed int64) error {
	b := append(w.scratch[:0], byte(OpCreate))
	b = codec.AppendString(b, strategy)
	b = binary.AppendVarint(b, seed)
	b = codec.AppendString(b, csv)
	w.scratch = b
	return w.frame(b)
}

// WriteStep encodes a step request: k proposals wanted, answers to
// apply first. Negative indices or k are caller bugs, rejected here so
// they can never reach the wire as huge uvarints.
func (w *Writer) WriteStep(id string, answers []Answer, k int) error {
	if k < 0 {
		return fmt.Errorf("%w: negative k %d", ErrMalformed, k)
	}
	b := append(w.scratch[:0], byte(OpStep))
	b = codec.AppendString(b, id)
	b = binary.AppendUvarint(b, uint64(k))
	b = binary.AppendUvarint(b, uint64(len(answers)))
	for _, a := range answers {
		if a.Index < 0 || !a.Label.Valid() {
			w.scratch = b[:0]
			return fmt.Errorf("%w: bad answer {%d %d}", ErrMalformed, a.Index, a.Label)
		}
		b = binary.AppendUvarint(b, uint64(a.Index))
		b = append(b, byte(a.Label))
	}
	w.scratch = b
	return w.frame(b)
}

// WriteAppend encodes an append request.
func (w *Writer) WriteAppend(id string, rows [][]string) error {
	b := append(w.scratch[:0], byte(OpAppend))
	b = codec.AppendString(b, id)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, cell := range row {
			b = codec.AppendString(b, cell)
		}
	}
	w.scratch = b
	return w.frame(b)
}

// WriteSimple encodes an id-only request (result, delete).
func (w *Writer) WriteSimple(op Op, id string) error {
	b := append(w.scratch[:0], byte(op))
	b = codec.AppendString(b, id)
	w.scratch = b
	return w.frame(b)
}

// WriteError encodes an error response from the jim taxonomy.
func (w *Writer) WriteError(code, msg string) error {
	b := append(w.scratch[:0], statusErr)
	b = codec.AppendString(b, code)
	b = codec.AppendString(b, msg)
	w.scratch = b
	return w.frame(b)
}

// WriteCreated encodes a create response.
func (w *Writer) WriteCreated(id string) error {
	b := append(w.scratch[:0], statusOK)
	b = codec.AppendString(b, id)
	w.scratch = b
	return w.frame(b)
}

// WriteStepResult encodes a step response.
func (w *Writer) WriteStepResult(res *StepResult) error {
	b := append(w.scratch[:0], statusOK)
	b = append(b, boolByte(res.Done))
	b = binary.AppendUvarint(b, uint64(len(res.Applied)))
	for _, a := range res.Applied {
		b = binary.AppendUvarint(b, uint64(a.NewlyImplied))
		b = binary.AppendUvarint(b, uint64(a.Informative))
	}
	b = binary.AppendUvarint(b, uint64(len(res.Proposals)))
	for _, p := range res.Proposals {
		b = binary.AppendUvarint(b, uint64(p))
	}
	w.scratch = b
	return w.frame(b)
}

// WriteAppendResult encodes an append response.
func (w *Writer) WriteAppendResult(res AppendResult) error {
	b := append(w.scratch[:0], statusOK)
	b = binary.AppendUvarint(b, uint64(res.Appended))
	b = binary.AppendUvarint(b, uint64(res.NewlyImplied))
	b = binary.AppendUvarint(b, uint64(res.Informative))
	b = append(b, boolByte(res.Done))
	w.scratch = b
	return w.frame(b)
}

// WriteResultData encodes a result response.
func (w *Writer) WriteResultData(res ResultData) error {
	b := append(w.scratch[:0], statusOK)
	b = append(b, boolByte(res.Done))
	b = codec.AppendString(b, res.Predicate)
	b = codec.AppendString(b, res.SQL)
	w.scratch = b
	return w.frame(b)
}

// WriteOK encodes a bare success response (delete).
func (w *Writer) WriteOK() error {
	b := append(w.scratch[:0], statusOK)
	w.scratch = b
	return w.frame(b)
}

// response reads one response frame and splits the status byte: an
// error frame is decoded into a *jim.Error; an ok frame returns its
// body cursor.
func (r *Reader) response() (codec.Cursor, error) {
	b, err := r.frame()
	if err != nil {
		return codec.Cursor{}, err
	}
	if len(b) == 0 {
		return codec.Cursor{}, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	c := codec.Cursor{B: b[1:]}
	switch b[0] {
	case statusOK:
		return c, nil
	case statusErr:
		code, err := c.Str()
		if err != nil {
			return codec.Cursor{}, err
		}
		msg, err := c.Str()
		if err != nil {
			return codec.Cursor{}, err
		}
		if err := c.Done(); err != nil {
			return codec.Cursor{}, err
		}
		return codec.Cursor{}, &jim.Error{Code: jim.ErrorCode(code), Message: msg}
	}
	return codec.Cursor{}, fmt.Errorf("%w: unknown status %d", ErrMalformed, b[0])
}

// ReadCreated decodes a create response.
func (r *Reader) ReadCreated() (string, error) {
	c, err := r.response()
	if err != nil {
		return "", err
	}
	id, err := c.Str()
	if err != nil {
		return "", err
	}
	return id, c.Done()
}

// ReadStepResult decodes a step response into res, reusing its slices.
func (r *Reader) ReadStepResult(res *StepResult) error {
	c, err := r.response()
	if err != nil {
		return err
	}
	done, err := c.Byte()
	if err != nil {
		return err
	}
	res.Done = done != 0
	res.Applied = res.Applied[:0]
	res.Proposals = res.Proposals[:0]
	n, err := c.Count(2)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var a AnswerOutcome
		if a.NewlyImplied, err = c.Sint(); err != nil {
			return err
		}
		if a.Informative, err = c.Sint(); err != nil {
			return err
		}
		res.Applied = append(res.Applied, a)
	}
	if n, err = c.Count(1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		p, err := c.Sint()
		if err != nil {
			return err
		}
		res.Proposals = append(res.Proposals, p)
	}
	return c.Done()
}

// ReadAppendResult decodes an append response.
func (r *Reader) ReadAppendResult() (AppendResult, error) {
	var res AppendResult
	c, err := r.response()
	if err != nil {
		return res, err
	}
	if res.Appended, err = c.Sint(); err != nil {
		return res, err
	}
	if res.NewlyImplied, err = c.Sint(); err != nil {
		return res, err
	}
	if res.Informative, err = c.Sint(); err != nil {
		return res, err
	}
	done, err := c.Byte()
	if err != nil {
		return res, err
	}
	res.Done = done != 0
	return res, c.Done()
}

// ReadResultData decodes a result response.
func (r *Reader) ReadResultData() (ResultData, error) {
	var res ResultData
	c, err := r.response()
	if err != nil {
		return res, err
	}
	done, err := c.Byte()
	if err != nil {
		return res, err
	}
	res.Done = done != 0
	if res.Predicate, err = c.Str(); err != nil {
		return res, err
	}
	if res.SQL, err = c.Str(); err != nil {
		return res, err
	}
	return res, c.Done()
}

// ReadOK decodes a bare success response.
func (r *Reader) ReadOK() error {
	c, err := r.response()
	if err != nil {
		return err
	}
	return c.Done()
}
