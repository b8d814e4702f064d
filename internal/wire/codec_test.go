package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	jim "repro"
	"repro/internal/codec"
	"repro/internal/relation"
	"repro/internal/workload"
)

// encodeFrames runs fn against a Writer and returns the bytes it
// framed.
func encodeFrames(t *testing.T, fn func(w *Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := fn(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		write func(w *Writer) error
		want  Request
	}{
		{
			name:  "create",
			write: func(w *Writer) error { return w.WriteCreate("a,b\n1,2\n", "lookahead-maxmin", -42) },
			want:  Request{Op: OpCreate, Strategy: "lookahead-maxmin", Seed: -42, CSV: "a,b\n1,2\n"},
		},
		{
			name: "step",
			write: func(w *Writer) error {
				return w.WriteStep("s0001", []Answer{{3, Positive}, {9, Negative}, {1, Skip}}, 4)
			},
			want: Request{Op: OpStep, ID: []byte("s0001"), K: 4,
				Answers: []Answer{{3, Positive}, {9, Negative}, {1, Skip}}},
		},
		{
			name:  "step empty",
			write: func(w *Writer) error { return w.WriteStep("s0002", nil, 0) },
			want:  Request{Op: OpStep, ID: []byte("s0002")},
		},
		{
			name: "append",
			write: func(w *Writer) error {
				return w.WriteAppend("s0003", [][]string{{"x", "y"}, {"", "z"}})
			},
			want: Request{Op: OpAppend, ID: []byte("s0003"), Rows: [][]string{{"x", "y"}, {"", "z"}}},
		},
		{
			name:  "result",
			write: func(w *Writer) error { return w.WriteSimple(OpResult, "s0004") },
			want:  Request{Op: OpResult, ID: []byte("s0004")},
		},
		{
			name:  "delete",
			write: func(w *Writer) error { return w.WriteSimple(OpDelete, "s0005") },
			want:  Request{Op: OpDelete, ID: []byte("s0005")},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeFrames(t, tc.write)
			r := NewReader(bytes.NewReader(data), 0)
			var req Request
			if err := r.ReadRequest(&req); err != nil {
				t.Fatal(err)
			}
			// Normalize: empty reused slices compare equal to absent ones.
			if len(req.Answers) == 0 {
				req.Answers = nil
			}
			if !reflect.DeepEqual(req, tc.want) {
				t.Errorf("decoded %+v, want %+v", req, tc.want)
			}
			if err := r.ReadRequest(&req); err != io.EOF {
				t.Errorf("after last frame: err = %v, want io.EOF", err)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	t.Run("created", func(t *testing.T) {
		data := encodeFrames(t, func(w *Writer) error { return w.WriteCreated("s0042") })
		id, err := NewReader(bytes.NewReader(data), 0).ReadCreated()
		if err != nil || id != "s0042" {
			t.Fatalf("ReadCreated = %q, %v", id, err)
		}
	})
	t.Run("step", func(t *testing.T) {
		in := StepResult{
			Applied:   []AnswerOutcome{{NewlyImplied: 2, Informative: 7}, {NewlyImplied: 0, Informative: 5}},
			Done:      false,
			Proposals: []int{11, 3, 8},
		}
		data := encodeFrames(t, func(w *Writer) error { return w.WriteStepResult(&in) })
		var out StepResult
		if err := NewReader(bytes.NewReader(data), 0).ReadStepResult(&out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("decoded %+v, want %+v", out, in)
		}
	})
	t.Run("step done empty", func(t *testing.T) {
		in := StepResult{Done: true}
		data := encodeFrames(t, func(w *Writer) error { return w.WriteStepResult(&in) })
		out := StepResult{Applied: []AnswerOutcome{{1, 1}}, Proposals: []int{9}} // must be reset
		if err := NewReader(bytes.NewReader(data), 0).ReadStepResult(&out); err != nil {
			t.Fatal(err)
		}
		if !out.Done || len(out.Applied) != 0 || len(out.Proposals) != 0 {
			t.Errorf("decoded %+v, want empty done", out)
		}
	})
	t.Run("append", func(t *testing.T) {
		in := AppendResult{Appended: 4, NewlyImplied: 1, Informative: 9, Done: true}
		data := encodeFrames(t, func(w *Writer) error { return w.WriteAppendResult(in) })
		out, err := NewReader(bytes.NewReader(data), 0).ReadAppendResult()
		if err != nil || out != in {
			t.Fatalf("ReadAppendResult = %+v, %v; want %+v", out, err, in)
		}
	})
	t.Run("result", func(t *testing.T) {
		in := ResultData{Done: true, Predicate: "{{1,2}}", SQL: "SELECT *"}
		data := encodeFrames(t, func(w *Writer) error { return w.WriteResultData(in) })
		out, err := NewReader(bytes.NewReader(data), 0).ReadResultData()
		if err != nil || out != in {
			t.Fatalf("ReadResultData = %+v, %v; want %+v", out, err, in)
		}
	})
	t.Run("ok", func(t *testing.T) {
		data := encodeFrames(t, func(w *Writer) error { return w.WriteOK() })
		if err := NewReader(bytes.NewReader(data), 0).ReadOK(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("error frame decodes to jim.Error", func(t *testing.T) {
		data := encodeFrames(t, func(w *Writer) error {
			return w.WriteError(string(jim.CodeNotFound), "no session")
		})
		err := NewReader(bytes.NewReader(data), 0).ReadOK()
		var je *jim.Error
		if !errors.As(err, &je) || je.Code != jim.CodeNotFound || je.Message != "no session" {
			t.Fatalf("err = %#v, want jim.Error{not_found}", err)
		}
	})
}

func TestDecodeErrors(t *testing.T) {
	frame := func(payload ...byte) []byte {
		return append([]byte{byte(len(payload))}, payload...)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty frame", frame(), ErrMalformed},
		{"unknown op", frame(99), ErrMalformed},
		{"truncated length varint", []byte{0x80}, ErrTruncated},
		{"payload shorter than declared", []byte{5, 1, 2}, ErrTruncated},
		{"length varint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, ErrMalformed},
		{"oversized declared length", []byte{0xff, 0xff, 0xff, 0x7f}, ErrFrameTooLarge},
		// op step, id len 1 "a", then k varint missing.
		{"step cut at k", frame(byte(OpStep), 1, 'a'), ErrMalformed},
		// step with answer count claiming more than the frame holds.
		{"answer count past frame", frame(byte(OpStep), 1, 'a', 0, 200), ErrMalformed},
		// step with one answer whose label byte is undefined.
		{"bad label byte", frame(byte(OpStep), 1, 'a', 0, 1, 3, 9), ErrMalformed},
		// create whose strategy length points past the frame end.
		{"string length past frame", frame(byte(OpCreate), 50, 'x'), ErrMalformed},
		// valid delete + trailing garbage.
		{"trailing bytes", frame(byte(OpDelete), 1, 'a', 7), ErrMalformed},
		// append whose row count outruns the payload.
		{"row count past frame", frame(byte(OpAppend), 1, 'a', 250), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(tc.data), 1<<20)
			var req Request
			err := r.ReadRequest(&req)
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestFrameCapBeforeAllocation: a frame declaring a huge payload fails
// on the declared length alone — the reader must not trust it enough
// to allocate or block reading.
func TestFrameCapBeforeAllocation(t *testing.T) {
	// uvarint(1<<40) followed by nothing: if the length were trusted,
	// ReadRequest would try to allocate a terabyte.
	data := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	r := NewReader(bytes.NewReader(data), 1<<16)
	var req Request
	if err := r.ReadRequest(&req); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestWriterFrameCap: the writer enforces the cap symmetrically.
func TestWriterFrameCap(t *testing.T) {
	w := NewWriter(io.Discard, 16)
	err := w.WriteCreate(string(make([]byte, 64)), "s", 0)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// loopReader replays the same encoded bytes forever without
// allocating, so decode allocations can be measured in isolation.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestZeroAllocCodec pins the per-frame codec hot path — step request
// encode/decode and step response encode/decode — at zero allocations
// in steady state. This is the wire analogue of the strategy package's
// TestZeroAllocPick and runs in the CI zero-alloc guard.
func TestZeroAllocCodec(t *testing.T) {
	answers := []Answer{{3, Positive}, {9, Negative}, {1, Skip}}

	t.Run("encode request", func(t *testing.T) {
		w := NewWriter(io.Discard, 0)
		for i := 0; i < 4; i++ { // warm the scratch buffer
			if err := w.WriteStep("s0001", answers, 4); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.WriteStep("s0001", answers, 4); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("step request encode: %.1f allocs/frame, want 0", allocs)
		}
	})

	t.Run("decode request", func(t *testing.T) {
		data := encodeFrames(t, func(w *Writer) error { return w.WriteStep("s0001", answers, 4) })
		r := NewReader(&loopReader{data: data}, 0)
		var req Request
		for i := 0; i < 4; i++ { // warm frame buffer + answers slice
			if err := r.ReadRequest(&req); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := r.ReadRequest(&req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("step request decode: %.1f allocs/frame, want 0", allocs)
		}
	})

	t.Run("encode response", func(t *testing.T) {
		res := StepResult{
			Applied:   []AnswerOutcome{{2, 7}, {0, 5}, {1, 4}},
			Proposals: []int{11, 3, 8},
		}
		w := NewWriter(io.Discard, 0)
		for i := 0; i < 4; i++ {
			if err := w.WriteStepResult(&res); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.WriteStepResult(&res); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("step response encode: %.1f allocs/frame, want 0", allocs)
		}
	})

	t.Run("decode response", func(t *testing.T) {
		in := StepResult{
			Applied:   []AnswerOutcome{{2, 7}, {0, 5}, {1, 4}},
			Proposals: []int{11, 3, 8},
		}
		data := encodeFrames(t, func(w *Writer) error { return w.WriteStepResult(&in) })
		r := NewReader(&loopReader{data: data}, 0)
		var res StepResult
		for i := 0; i < 4; i++ {
			if err := r.ReadStepResult(&res); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := r.ReadStepResult(&res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("step response decode: %.1f allocs/frame, want 0", allocs)
		}
	})
}

// syntheticRows encodes n rows of the synthetic benchmark instance the
// way clients stream arrivals: relation.EncodeCell per cell.
func syntheticRows(t testing.TB, n int) [][]string {
	t.Helper()
	rel, _, err := workload.Instance("synthetic", workload.InstanceConfig{Tuples: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, rel.Len())
	for i := range rows {
		row := make([]string, rel.Schema().Len())
		for c, v := range rel.Tuple(i) {
			row[c] = relation.EncodeCell(v)
		}
		rows[i] = row
	}
	return rows
}

// TestAppendRowsMatchReference: decoded rows equal both the rows
// encoded and the cell-by-cell Str decode of the same frame, across
// empty cells, empty rows, multi-byte text and long cells.
func TestAppendRowsMatchReference(t *testing.T) {
	long := strings.Repeat("ab", 200)
	cases := [][][]string{
		{},
		{{}},
		{{""}},
		{{"", ""}, {}, {"x"}},
		{{"Paris", "Lille", "AF"}, {"١٢", "", long}, {long, "NULL", "-12"}},
		syntheticRows(t, 50),
	}
	for i, rows := range cases {
		data := encodeFrames(t, func(w *Writer) error { return w.WriteAppend("s0001", rows) })
		var req Request
		if err := NewReader(bytes.NewReader(data), 0).ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
		want, err := referenceRows(payloads(data)[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.Rows, want) || !reflect.DeepEqual(req.Rows, rows) {
			t.Errorf("case %d: decoded %q, reference %q, sent %q", i, req.Rows, want, rows)
		}
	}
}

// cellLengthEdges are cell lengths on both sides of the one- and
// two-byte uvarint boundaries.
var cellLengthEdges = []int{0, 1, 127, 128, 16383, 16384}

// lengthEdgeRows is one row per entry of cellLengthEdges, then one row
// holding a cell of every length up to 128.
func lengthEdgeRows() [][]string {
	var rows [][]string
	var short []string
	for _, n := range cellLengthEdges {
		cell := strings.Repeat("7", n)
		rows = append(rows, []string{cell})
		if n <= 128 {
			short = append(short, cell)
		}
	}
	return append(rows, short)
}

// uvarintAppendFrame is WriteAppend written the plain way: a uvarint
// before every length, however short.
func uvarintAppendFrame(id string, rows [][]string) []byte {
	uv := binary.AppendUvarint
	p := []byte{byte(OpAppend)}
	p = append(uv(p, uint64(len(id))), id...)
	p = uv(p, uint64(len(rows)))
	for _, row := range rows {
		p = uv(p, uint64(len(row)))
		for _, cell := range row {
			p = append(uv(p, uint64(len(cell))), cell...)
		}
	}
	return append(uv(nil, uint64(len(p))), p...)
}

// TestWriteAppendMatchesUvarintReference: the inline one-byte cell
// lengths leave the bytes on the wire as they were, and the decoder
// reads them back, at every length boundary.
func TestWriteAppendMatchesUvarintReference(t *testing.T) {
	for _, rows := range append([][][]string{lengthEdgeRows()}, syntheticRows(t, 20)) {
		got := encodeFrames(t, func(w *Writer) error { return w.WriteAppend("s0001", rows) })
		if want := uvarintAppendFrame("s0001", rows); !bytes.Equal(got, want) {
			t.Fatalf("WriteAppend frame differs from the uvarint reference:\n got %x\nwant %x", got[:min(len(got), 64)], want[:min(len(want), 64)])
		}
		var req Request
		if err := NewReader(bytes.NewReader(got), 0).ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.Rows, rows) {
			t.Fatalf("decoded rows differ from those sent")
		}
	}
}

// TestAppendCellLengthOverrun: a cell length that points past the end
// of the frame fails with the error of the general Cursor path, one
// byte long or two.
func TestAppendCellLengthOverrun(t *testing.T) {
	for _, p := range [][]byte{
		{byte(OpAppend), 1, 'a', 1, 1, 5, 'x', 'y'},                    // one-byte length 5, 2 bytes left
		{byte(OpAppend), 1, 'a', 1, 2, 1, 'x', 3, 'y'},                 // second cell overruns
		{byte(OpAppend), 1, 'a', 1, 1, 127},                            // 127, nothing left
		{byte(OpAppend), 1, 'a', 1, 1, 0x80, 0x01, 'x'},                // two-byte length 128
		{byte(OpAppend), 1, 'a', 2, 1, 0, 1, 0x7f, 'x', 'x', 'x', 'x'}, // second row overruns
	} {
		data := append([]byte{byte(len(p))}, p...)
		var req Request
		err := NewReader(bytes.NewReader(data), 0).ReadRequest(&req)
		_, want := referenceRows(p)
		if !errors.Is(err, ErrMalformed) || want == nil || err.Error() != want.Error() {
			t.Errorf("payload %x: err = %v, want %v", p, err, want)
		}
	}
}

// TestAppendRowsIndependent: the rows of one frame share one cell
// slice, cut at full capacity, so appending to a row copies it rather
// than overwriting the next row.
func TestAppendRowsIndependent(t *testing.T) {
	data := encodeFrames(t, func(w *Writer) error {
		return w.WriteAppend("s0001", [][]string{{"a", "b"}, {"c", "d"}, {"e", "f"}})
	})
	var req Request
	if err := NewReader(bytes.NewReader(data), 0).ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	rows := req.Rows
	rows[0] = append(rows[0], "x")
	rows[1] = append(rows[1][:1], "y")
	want := [][]string{{"a", "b", "x"}, {"c", "y"}, {"e", "f"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows after appends %q, want %q", rows, want)
	}
}

// TestAppendRowsValidUntilNextRead pins the view contract of
// Request.Rows: the cells alias the frame buffer and the row slices
// are Reader scratch, so a copy taken before the next ReadRequest
// survives it while the rows themselves are reused for the next frame.
func TestAppendRowsValidUntilNextRead(t *testing.T) {
	first := [][]string{{"Paris", "Lille"}, {"NYC", "AA"}}
	second := [][]string{{"XXXXX", "YYYYY"}, {"ZZZ", "WW"}}
	data := encodeFrames(t, func(w *Writer) error {
		if err := w.WriteAppend("s0001", first); err != nil {
			return err
		}
		return w.WriteAppend("s0001", second)
	})
	r := NewReader(bytes.NewReader(data), 0)
	var req Request
	if err := r.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Rows, first) {
		t.Fatalf("first frame's rows %q, want %q", req.Rows, first)
	}
	view := req.Rows
	copied := make([][]string, len(view))
	for i, row := range view {
		copied[i] = make([]string, len(row))
		for j, cell := range row {
			copied[i][j] = strings.Clone(cell)
		}
	}
	if err := r.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Rows, second) {
		t.Errorf("second frame's rows %q, want %q", req.Rows, second)
	}
	if !reflect.DeepEqual(copied, first) {
		t.Errorf("copy of the first frame's rows became %q, want %q", copied, first)
	}
	// Same-length frames reuse the buffer and the scratch: the kept
	// view now shows the second frame.
	if &view[0] != &req.Rows[0] || !reflect.DeepEqual(view, second) {
		t.Errorf("kept view %q after the next read, want the reused scratch showing %q", view, second)
	}
}

// retained is what r keeps between frames: its frame buffer and its
// row scratch, in bytes.
func (r *Reader) retained() int {
	return cap(r.buf) + cap(r.cells)*int(unsafe.Sizeof("")) + cap(r.rows)*int(unsafe.Sizeof([]string{}))
}

// TestRowScratchReleasesLargeFrames: the frame buffer's retention is
// codec.ReadStreamFrame's (TestReaderReleasesLargeFrames in
// internal/codec); this holds the append decode's row scratch to the
// same bound, so a connection that once received a 4 MiB append keeps
// no more than codec.MaxRetainedFrame once the next frame is read;
// frames at most that size keep the buffer and scratch for the next
// frame.
func TestRowScratchReleasesLargeFrames(t *testing.T) {
	cell := strings.Repeat("c", 63)
	big := make([][]string, 0, 4<<20/(6*64))
	for len(big) < cap(big) {
		big = append(big, []string{cell, cell, cell, cell, cell, cell})
	}
	small := syntheticRows(t, 50)
	data := encodeFrames(t, func(w *Writer) error {
		if err := w.WriteAppend("s0001", small); err != nil {
			return err
		}
		if err := w.WriteAppend("s0001", big); err != nil {
			return err
		}
		return w.WriteAppend("s0001", small)
	})
	if n := len(payloads(data)[1]); n < 4<<20 {
		t.Fatalf("large frame is %d bytes, want at least 4 MiB", n)
	}
	r := NewReader(bytes.NewReader(data), 0)
	var req Request
	for i, want := range [][][]string{small, big, small} {
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.Rows, want) {
			t.Fatalf("frame %d: rows differ from those sent", i)
		}
		got := r.retained()
		t.Logf("after frame %d the reader retains %d bytes", i, got)
		if got > codec.MaxRetainedFrame {
			t.Errorf("after frame %d the reader retains %d bytes, want <= %d", i, got, codec.MaxRetainedFrame)
		}
		if i != 1 && (cap(r.buf) == 0 || cap(r.cells) == 0) {
			t.Errorf("after small frame %d the reader dropped its buffer or scratch", i)
		}
	}
}

// TestAppendDecodeAllocs pins the append decode at zero allocations
// once the frame buffer and the row scratch are warm: a 940×6
// synthetic frame (6,600 allocations when every cell was its own
// string, 942 when each row was).
func TestAppendDecodeAllocs(t *testing.T) {
	const batchRows = 940
	rows := syntheticRows(t, batchRows)
	data := encodeFrames(t, func(w *Writer) error { return w.WriteAppend("s0001", rows) })
	r := NewReader(&loopReader{data: data}, 0)
	var req Request
	for i := 0; i < 4; i++ { // warm the frame buffer and row scratch
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d-row append decode made %.1f allocations, want 0", batchRows, allocs)
	}
}

// BenchmarkCodecStepFrame measures one full step frame round trip
// (encode request, decode request, encode response, decode response).
func BenchmarkCodecStepFrame(b *testing.B) {
	answers := []Answer{{3, Positive}, {9, Negative}, {1, Skip}}
	res := StepResult{Applied: []AnswerOutcome{{2, 7}, {0, 5}, {1, 4}}, Proposals: []int{11, 3, 8}}
	reqData := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, 0)
		w.WriteStep("s0001", answers, 4)
		w.Flush()
		return buf.Bytes()
	}()
	resData := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, 0)
		w.WriteStepResult(&res)
		w.Flush()
		return buf.Bytes()
	}()
	wq := NewWriter(io.Discard, 0)
	wr := NewWriter(io.Discard, 0)
	rq := NewReader(&loopReader{data: reqData}, 0)
	rr := NewReader(&loopReader{data: resData}, 0)
	var req Request
	var out StepResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wq.WriteStep("s0001", answers, 4); err != nil {
			b.Fatal(err)
		}
		wq.Flush()
		if err := rq.ReadRequest(&req); err != nil {
			b.Fatal(err)
		}
		if err := wr.WriteStepResult(&res); err != nil {
			b.Fatal(err)
		}
		wr.Flush()
		if err := rr.ReadStepResult(&out); err != nil {
			b.Fatal(err)
		}
	}
}
