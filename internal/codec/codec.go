// Package codec holds the binary encoding primitives shared by the
// wire protocol (internal/wire), the replication stream
// (internal/cluster) and the durable store's on-disk format v2
// (internal/store): LEB128 varint cursors with hostile-input bounds
// checking, allocation-free append helpers, CRC32C-framed records for
// media that — unlike TCP — have no checksum of their own, and (in
// stream.go) the uvarint-length stream frames and accept loop that
// both TCP protocols serve through.
//
// Everything here follows two contracts the consumers are pinned to
// in CI:
//
//   - Decoding arbitrary bytes yields a value or an error wrapping
//     exactly one of the typed sentinels below — never a panic — and
//     no declared length is trusted beyond the bytes actually
//     present, so a handful of input bytes can never drive a large
//     allocation.
//   - Encoding appends into caller-owned buffers and allocates
//     nothing once those buffers have grown to their steady-state
//     capacity.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Typed decode errors. Every decoding failure wraps exactly one of
// these, so callers can switch on errors.Is without parsing messages.
var (
	// ErrMalformed reports a structurally invalid payload: a varint
	// overflow, an inner length pointing past the available bytes, or
	// trailing garbage.
	ErrMalformed = errors.New("codec: malformed payload")
	// ErrTruncated reports input that ended inside a record — a
	// partial varint or fewer payload bytes than declared.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrTooLarge reports a record whose declared length exceeds the
	// configured cap. The length is not trusted: nothing is allocated
	// or read for such a record.
	ErrTooLarge = errors.New("codec: frame exceeds size limit")
	// ErrChecksum reports a CRC-framed record whose payload does not
	// match its checksum: bit corruption, or a torn write when it is
	// the final record of an append-only log.
	ErrChecksum = errors.New("codec: checksum mismatch")
)

// castagnoli is the CRC32C polynomial table — hardware-accelerated on
// amd64/arm64, and the standard choice for storage framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// crcLen is the fixed on-disk size of a frame checksum.
const crcLen = 4

// AppendFrame appends one CRC-framed record to dst and returns the
// extended slice: uvarint payload length, CRC32C of the payload
// (little-endian, 4 bytes), then the payload. Allocation-free once
// dst has capacity.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// ReadFrame decodes one CRC-framed record from the front of b,
// returning the payload view and the remaining bytes. ErrTruncated
// means b ends inside the record (a torn tail when b is the end of an
// append-only log); ErrChecksum means the record is fully present but
// its payload fails verification.
func ReadFrame(b []byte) (payload, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		if w == 0 {
			return nil, nil, fmt.Errorf("%w: frame length cut short", ErrTruncated)
		}
		return nil, nil, fmt.Errorf("%w: frame length overflows 64 bits", ErrMalformed)
	}
	b = b[w:]
	// Two-sided check so a near-MaxUint64 length cannot overflow the
	// n+crcLen sum into a passing comparison.
	if n > uint64(len(b)) || uint64(len(b))-n < crcLen {
		return nil, nil, fmt.Errorf("%w: %d payload bytes declared, %d present", ErrTruncated, n, len(b))
	}
	sum := binary.LittleEndian.Uint32(b)
	payload = b[crcLen : crcLen+n]
	if Checksum(payload) != sum {
		return nil, nil, fmt.Errorf("%w: frame of %d bytes", ErrChecksum, n)
	}
	return payload, b[crcLen+n:], nil
}

// AppendString appends a uvarint-length-prefixed string to b. A length
// under 128 is its own one-byte uvarint, written inline.
func AppendString(b []byte, s string) []byte {
	if len(s) < 0x80 {
		b = append(b, byte(len(s)))
	} else {
		b = binary.AppendUvarint(b, uint64(len(s)))
	}
	return append(b, s...)
}

// Cursor walks one decoded payload. Every inner length is validated
// against the bytes actually present before it is trusted. The zero
// Cursor over a payload slice is ready to use; B is exported so
// consumers can construct and re-seed cursors without copying.
type Cursor struct{ B []byte }

// Uvarint decodes one unsigned LEB128 varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.B)
	if n <= 0 {
		return 0, varintErr(n)
	}
	c.B = c.B[n:]
	return v, nil
}

// Varint decodes one signed (zigzag) varint.
func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.B)
	if n <= 0 {
		return 0, varintErr(n)
	}
	c.B = c.B[n:]
	return v, nil
}

func varintErr(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: varint cut short", ErrMalformed)
	}
	return fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
}

// Sint decodes a non-negative integer bounded to 32 bits — indices
// and counts; anything larger is a corrupt payload, not real data.
func (c *Cursor) Sint() (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: integer %d out of range", ErrMalformed, v)
	}
	return int(v), nil
}

// Count decodes a collection length and bounds it by the bytes left
// in the payload (each element needs at least minBytes), so a hostile
// count can never drive an allocation larger than the input itself.
func (c *Cursor) Count(minBytes int) (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(c.B)/minBytes) {
		return 0, fmt.Errorf("%w: count %d exceeds payload size", ErrMalformed, v)
	}
	return int(v), nil
}

// Byte decodes one byte.
func (c *Cursor) Byte() (byte, error) {
	if len(c.B) == 0 {
		return 0, fmt.Errorf("%w: byte cut short", ErrMalformed)
	}
	v := c.B[0]
	c.B = c.B[1:]
	return v, nil
}

// Bytes decodes a length-prefixed slice as a view into the payload —
// zero-copy; valid as long as the payload's backing array.
func (c *Cursor) Bytes() ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.B)) {
		return nil, fmt.Errorf("%w: %d string bytes declared, %d left", ErrMalformed, n, len(c.B))
	}
	v := c.B[:n]
	c.B = c.B[n:]
	return v, nil
}

// Str decodes a length-prefixed string, copying out of the payload.
func (c *Cursor) Str() (string, error) {
	b, err := c.Bytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Done requires the payload to be fully consumed.
func (c *Cursor) Done() error {
	if len(c.B) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(c.B))
	}
	return nil
}
