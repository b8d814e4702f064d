package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// streamOf encodes payloads as stream frames.
func streamOf(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	for _, p := range payloads {
		if err := WriteStreamFrame(bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestReaderReleasesLargeFrames: a frame above MaxRetainedFrame is read
// into a buffer of its own, so a connection (wire or replication) that
// once received a 4 MiB frame keeps no more than MaxRetainedFrame once
// the next frame is read; frames at most that size keep the buffer for
// the next frame.
func TestReaderReleasesLargeFrames(t *testing.T) {
	small := bytes.Repeat([]byte{1}, 4096)
	big := bytes.Repeat([]byte{2}, 4<<20)
	br := bufio.NewReader(bytes.NewReader(streamOf(t, small, big, small)))
	var buf []byte
	for i, want := range [][]byte{small, big, small} {
		got, err := ReadStreamFrame(br, 8<<20, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d differs from the one sent", i)
		}
		t.Logf("after frame %d the reader retains %d bytes", i, cap(buf))
		if cap(buf) > MaxRetainedFrame {
			t.Errorf("after frame %d the reader retains %d bytes, want <= %d", i, cap(buf), MaxRetainedFrame)
		}
		if i != 1 && cap(buf) == 0 {
			t.Errorf("after small frame %d the reader dropped its buffer", i)
		}
	}
}

// fuzzMaxFrame is FuzzReadStreamFrame's frame cap: above
// MaxRetainedFrame, so both buffer paths are reachable.
const fuzzMaxFrame = 2 << 20

// allocSlack covers what a call allocates besides the frame itself:
// the error value and its message.
const allocSlack = 16 << 10

// FuzzReadStreamFrame reads frames from arbitrary bytes (data, then
// tail zero bytes, so the corpus can name a megabyte frame in a few
// bytes) and checks each call against a slice-based reference parse:
// it returns the reference's frame, io.EOF at a frame boundary, or an
// error wrapping exactly the reference's one of ErrTruncated,
// ErrMalformed and ErrTooLarge. A call allocates at most the declared
// length, and nothing for a length above the cap, and the reader never
// keeps a buffer above MaxRetainedFrame. The committed corpus in
// testdata/fuzz seeds a clean EOF, a cut length varint, an overlong
// varint, a length above the cap, a cut payload, two back-to-back
// frames and a frame of 1 MiB + 1.
func FuzzReadStreamFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, tail uint32) {
		in := append(append([]byte(nil), data...), make([]byte, tail%(fuzzMaxFrame+2))...)
		br := bufio.NewReader(bytes.NewReader(in))
		var buf []byte
		var ms runtime.MemStats
		for rest := in; ; {
			wantFrame, declared, size, wantErr := referenceFrame(rest)
			// Only a declared length above the slack can break the
			// allocation bound, so only those calls pay for MemStats.
			measure := declared > allocSlack
			if measure {
				runtime.ReadMemStats(&ms)
			}
			before := ms.TotalAlloc
			got, err := ReadStreamFrame(br, fuzzMaxFrame, &buf)
			if measure {
				runtime.ReadMemStats(&ms)
				limit := min(declared, fuzzMaxFrame) + allocSlack
				if wantErr == ErrTooLarge {
					limit = allocSlack
				}
				if alloc := ms.TotalAlloc - before; alloc > limit {
					t.Fatalf("call allocated %d bytes for a declared length of %d (cap %d)", alloc, declared, fuzzMaxFrame)
				}
			}
			if cap(buf) > MaxRetainedFrame {
				t.Fatalf("reader retains %d bytes, want <= %d", cap(buf), MaxRetainedFrame)
			}
			switch {
			case wantErr == io.EOF:
				if err != io.EOF {
					t.Fatalf("at a frame boundary got %v, want io.EOF", err)
				}
				return
			case wantErr != nil:
				if !errors.Is(err, wantErr) || sentinels(err) != 1 {
					t.Fatalf("got %v, want an error wrapping only %v", err, wantErr)
				}
				return
			case err != nil || !bytes.Equal(got, wantFrame):
				t.Fatalf("got (%d bytes, %v), want a %d-byte frame", len(got), err, len(wantFrame))
			}
			rest = rest[size:]
		}
	})
}

// referenceFrame parses the first stream frame of b with
// binary.Uvarint: the frame, its declared length and the bytes it
// spans, or the error ReadStreamFrame must return or wrap.
func referenceFrame(b []byte) (frame []byte, declared uint64, size int, err error) {
	if len(b) == 0 {
		return nil, 0, 0, io.EOF
	}
	n, w := binary.Uvarint(b)
	switch {
	case w < 0 || w == 0 && len(b) >= binary.MaxVarintLen64:
		// Ten continuation bytes overflow before an eleventh is read.
		return nil, 0, 0, ErrMalformed
	case w == 0:
		return nil, 0, 0, ErrTruncated
	case n > fuzzMaxFrame:
		return nil, n, 0, ErrTooLarge
	case n > uint64(len(b)-w):
		return nil, n, 0, ErrTruncated
	}
	return b[w : w+int(n)], n, w + int(n), nil
}

// sentinels counts the stream sentinels err wraps.
func sentinels(err error) int {
	c := 0
	for _, s := range []error{ErrTruncated, ErrMalformed, ErrTooLarge} {
		if errors.Is(err, s) {
			c++
		}
	}
	return c
}
