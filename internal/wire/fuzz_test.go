package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	jim "repro"
	"repro/internal/codec"
)

// protocolErr reports whether err is one of the typed decode errors —
// the only failures the codec may produce on hostile input.
func protocolErr(err error) bool {
	return errors.Is(err, ErrMalformed) ||
		errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrFrameTooLarge)
}

// payloads splits a request stream into its frame payloads, stopping at
// the first frame that is cut short.
func payloads(data []byte) [][]byte {
	var out [][]byte
	for {
		n, w := binary.Uvarint(data)
		if w <= 0 || n > uint64(len(data)-w) {
			return out
		}
		out = append(out, data[w:w+int(n)])
		data = data[w+int(n):]
	}
}

// referenceRows decodes the row list of an append payload the plain
// way, one Str copy per cell — what ReadRequest must agree with.
func referenceRows(payload []byte) ([][]string, error) {
	c := codec.Cursor{B: payload[1:]}
	if _, err := c.Bytes(); err != nil {
		return nil, err
	}
	nrows, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, nrows)
	for i := 0; i < nrows; i++ {
		n, err := c.Count(1)
		if err != nil {
			return nil, err
		}
		row := make([]string, 0, n)
		for j := 0; j < n; j++ {
			cell, err := c.Str()
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return rows, c.Done()
}

// FuzzDecodeRequest feeds arbitrary bytes to the request decoder. The
// contract under attack: any input yields io.EOF (clean end) or a
// typed protocol error — never a panic — and no declared length is
// trusted beyond the bytes actually present, so a handful of input
// bytes can never drive a large allocation. Every decoded append must
// carry exactly the rows referenceRows reads from the same frame. The
// committed corpus in testdata/fuzz seeds one valid frame per op plus
// the interesting malformed shapes; CI runs a short -fuzz smoke on top.
func FuzzDecodeRequest(f *testing.F) {
	// One valid frame per op.
	seed := func(fn func(w *Writer) error) {
		var buf bytes.Buffer
		w := NewWriter(&buf, 0)
		if err := fn(w); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(w *Writer) error { return w.WriteCreate("a,b\n1,2\n", "random", -3) })
	seed(func(w *Writer) error {
		return w.WriteStep("s0001", []Answer{{3, Positive}, {1, Skip}}, 4)
	})
	seed(func(w *Writer) error { return w.WriteAppend("s0001", [][]string{{"x", ""}, {"y", "z"}}) })
	seed(func(w *Writer) error { return w.WriteSimple(OpResult, "s0001") })
	seed(func(w *Writer) error { return w.WriteSimple(OpDelete, "s0001") })
	// Two frames back to back (the pipelined shape).
	seed(func(w *Writer) error {
		if err := w.WriteStep("s0001", nil, 0); err != nil {
			return err
		}
		return w.WriteStep("s0001", []Answer{{0, Negative}}, 1)
	})
	// Malformed shapes.
	f.Add([]byte{})
	f.Add([]byte{0x80})                                           // length varint cut short
	f.Add([]byte{0x00})                                           // empty frame
	f.Add([]byte{0x01, 0x63})                                     // unknown op
	f.Add([]byte{0x05, 0x02, 0x01, 0x61})                         // step cut at k
	f.Add([]byte{0x06, 0x02, 0x01, 0x61, 0x00, 0xfa})             // answer count past frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})                         // oversized declared length
	f.Add([]byte{0x04, 0x03, 0x01, 0x61, 0xfa})                   // append row count past frame
	f.Add([]byte{0x03, 0x01, 0x32, 0x78})                         // create strategy length past frame
	f.Add(bytes.Repeat([]byte{0xff}, 16))                         // varint overflow
	f.Add([]byte{0x04, 0x05, 0x01, 0x61, 0x07})                   // trailing byte after delete
	f.Add([]byte{0x07, 0x02, 0x01, 0x61, 0x00, 0x01, 0x03, 0x09}) // bad label byte
	// Cell lengths at the one- and two-byte uvarint boundaries, one
	// frame per length so each stays under the fuzz frame cap, and
	// one-byte lengths that overrun the frame.
	for _, row := range lengthEdgeRows() {
		seed(func(w *Writer) error { return w.WriteAppend("s0001", [][]string{row, {"x"}}) })
	}
	f.Add([]byte{0x08, 0x03, 0x01, 0x61, 0x01, 0x01, 0x05, 0x78, 0x79})
	f.Add([]byte{0x06, 0x03, 0x01, 0x61, 0x01, 0x01, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The cap is deliberately small so the fuzzer can reach it, and
		// doubles as the over-allocation guard: nothing decoded from a
		// frame may exceed the frame's own length.
		r := NewReader(bytes.NewReader(data), 1<<16)
		frames := payloads(data)
		var req Request
		for k := 0; ; k++ {
			err := r.ReadRequest(&req)
			if err == nil {
				if len(req.Rows) > len(data) || len(req.Answers) > len(data) ||
					len(req.CSV) > len(data) || len(req.Strategy) > len(data) {
					t.Fatalf("decoded more than the input holds: %d rows, %d answers from %d bytes",
						len(req.Rows), len(req.Answers), len(data))
				}
				if req.Op == OpAppend {
					want, err := referenceRows(frames[k])
					if err != nil {
						t.Fatalf("frame %d decoded, reference decode failed: %v", k, err)
					}
					if !reflect.DeepEqual(req.Rows, want) {
						t.Fatalf("frame %d rows %q, reference %q", k, req.Rows, want)
					}
				}
				continue
			}
			if err == io.EOF {
				return
			}
			if !protocolErr(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
	})
}

// FuzzDecodeResponse drives the client-side decoders over arbitrary
// bytes: same no-panic, typed-errors-only contract. An error frame
// decodes into a *jim.Error by design, so that is a legal outcome too.
func FuzzDecodeResponse(f *testing.F) {
	seed := func(fn func(w *Writer) error) {
		var buf bytes.Buffer
		w := NewWriter(&buf, 0)
		if err := fn(w); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(w *Writer) error { return w.WriteCreated("s0001") })
	seed(func(w *Writer) error {
		return w.WriteStepResult(&StepResult{Applied: []AnswerOutcome{{1, 4}}, Proposals: []int{2}})
	})
	seed(func(w *Writer) error {
		return w.WriteAppendResult(AppendResult{Appended: 2, Informative: 3})
	})
	seed(func(w *Writer) error { return w.WriteResultData(ResultData{Done: true, Predicate: "p", SQL: "q"}) })
	seed(func(w *Writer) error { return w.WriteOK() })
	seed(func(w *Writer) error { return w.WriteError("not_found", "no session") })
	f.Add([]byte{0x01, 0x02}) // unknown status byte

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(err error) {
			if err == nil || err == io.EOF || protocolErr(err) {
				return
			}
			var je *jim.Error
			if errors.As(err, &je) {
				return
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		var res StepResult
		check(NewReader(bytes.NewReader(data), 1<<16).ReadStepResult(&res))
		_, err := NewReader(bytes.NewReader(data), 1<<16).ReadCreated()
		check(err)
		_, err = NewReader(bytes.NewReader(data), 1<<16).ReadAppendResult()
		check(err)
		_, err = NewReader(bytes.NewReader(data), 1<<16).ReadResultData()
		check(err)
		check(NewReader(bytes.NewReader(data), 1<<16).ReadOK())
	})
}
