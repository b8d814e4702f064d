package codec

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Stream framing: the wire protocol and the replication stream both
// carry uvarint(len(payload)) payload frames over TCP, with no CRC —
// TCP checksums the path. Both read, write and accept through the
// functions below.

// MaxRetainedFrame is the largest frame whose buffer ReadStreamFrame
// keeps for the next frame. A larger frame gets a buffer of its own
// that lives only as long as what was decoded from it, so one huge
// frame does not leave its connection holding up to the frame cap for
// good. 1 MiB is far above a bulk append batch.
const MaxRetainedFrame = 1 << 20

// ReadStreamFrame reads one length-prefixed payload from br into *buf,
// growing it as needed, or into a buffer of its own above
// MaxRetainedFrame. The returned slice is valid until the next call
// with the same buf. io.EOF is returned only at a clean frame
// boundary; any other failure wraps exactly one of ErrTruncated,
// ErrMalformed or ErrTooLarge, except a transport error between
// frames, which is returned as is. The declared length is checked
// against max before any allocation, so a hostile length cannot
// balloon memory.
func ReadStreamFrame(br *bufio.Reader, max int, buf *[]byte) ([]byte, error) {
	if _, err := br.Peek(1); err != nil {
		return nil, err // clean EOF (or the transport's own error)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: length varint cut short", ErrTruncated)
		}
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("%w: %d bytes declared, cap %d", ErrTooLarge, n, max)
	}
	b := *buf
	switch {
	case n > MaxRetainedFrame:
		b = make([]byte, n)
	case uint64(cap(b)) < n:
		*buf = make([]byte, n)
		b = *buf
	}
	b = b[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, fmt.Errorf("%w: %d payload bytes declared, stream ended early", ErrTruncated, n)
	}
	return b, nil
}

// WriteStreamFrame writes one length-prefixed payload to bw. The
// length varint goes out a byte at a time: a header array handed to
// bw.Write would escape through the underlying io.Writer and cost an
// allocation per frame.
func WriteStreamFrame(bw *bufio.Writer, payload []byte) error {
	n := uint64(len(payload))
	for ; n >= 0x80; n >>= 7 {
		if err := bw.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// ErrListenerClosed is returned by Listener.Serve after Shutdown.
var ErrListenerClosed = errors.New("codec: listener closed")

// Listener is the accept loop of a stream server: one goroutine per
// connection, and a connection set Shutdown can reach. The zero value
// is ready to use.
type Listener struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve accepts connections on ln until Shutdown, running handle on
// each in its own goroutine and closing the connection when handle
// returns. It returns ErrListenerClosed after Shutdown (also when
// Shutdown came first), or the accept error otherwise.
func (l *Listener) Serve(ln net.Listener, handle func(net.Conn)) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return ErrListenerClosed
	}
	l.ln = ln
	if l.conns == nil {
		l.conns = make(map[net.Conn]struct{})
	}
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return ErrListenerClosed
		}
		if err != nil {
			l.mu.Unlock()
			return err
		}
		// Register the connection under the lock that Shutdown takes,
		// so Shutdown either sees it in the set and waits for it, or
		// comes first and the check above turns it away.
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			handle(conn)
			conn.Close()
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting and waits, up to ctx, for every connection's
// handler to return. With grace > 0 each connection gets a read
// deadline that far away, so frames already sent are still read and
// answered; with grace 0 the connections are closed at once. When ctx
// ends first the connections are closed and ctx.Err() returned.
func (l *Listener) Shutdown(ctx context.Context, grace time.Duration) error {
	l.mu.Lock()
	l.closed = true
	if l.ln != nil {
		l.ln.Close()
	}
	deadline := time.Now().Add(grace)
	for c := range l.conns {
		if grace > 0 {
			c.SetReadDeadline(deadline)
		} else {
			c.Close()
		}
	}
	l.mu.Unlock()

	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		for c := range l.conns {
			c.Close()
		}
		l.mu.Unlock()
		return ctx.Err()
	}
}
