package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"time"

	jim "repro"
	"repro/internal/codec"
)

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// http.ErrServerClosed so jimserver can treat both listeners alike.
var ErrServerClosed = errors.New("wire: server closed")

// Server accepts wire-protocol connections and drives a Backend. One
// goroutine per connection; within a connection, requests are handled
// strictly in order (the pipelining contract).
type Server struct {
	// Backend handles the decoded requests. If it also implements
	// OpRecorder, per-op latency is reported to it.
	Backend Backend
	// MaxFrame caps frame payloads (<= 0 means DefaultMaxFrame); wired
	// to -max-body-bytes in jimserver so both transports share a cap.
	MaxFrame int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)

	l codec.Listener
}

// Serve accepts connections on ln until Shutdown. Always returns a
// non-nil error; after Shutdown it returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.l.Serve(ln, s.serveConn); err != codec.ErrListenerClosed {
		return err
	}
	return ErrServerClosed
}

// shutdownGrace is how long a connection may keep serving after
// Shutdown begins: long enough that pipelined frames already ACKed
// into the kernel socket buffer get read and answered, short enough
// that shutdown stays snappy.
const shutdownGrace = 250 * time.Millisecond

// Shutdown stops accepting, lets every connection finish the requests
// already in flight (a short grace read deadline, so pipelined frames
// sitting in the socket buffer still get answered), and waits for the
// connections to drain (up to ctx). A frame half-sent at the grace
// cutoff is abandoned.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.l.Shutdown(ctx, shutdownGrace)
}

// idCache converts the frame-buffer id view to a string without
// allocating when a connection keeps addressing the same session —
// the overwhelmingly common shape (one dialogue per connection). The
// `string(b) == c.s` comparison compiles to a byte compare, no alloc.
type idCache struct{ s string }

func (c *idCache) get(b []byte) string {
	if string(b) == c.s {
		return c.s
	}
	c.s = string(b)
	return c.s
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// serveConn runs one connection's request loop. Responses are buffered
// and flushed only when the read side has no more pipelined frames
// waiting, so a burst of N requests costs one syscall each way.
func (s *Server) serveConn(conn net.Conn) {
	r := NewReader(conn, s.MaxFrame)
	// MaxFrame guards against hostile *inbound* lengths; responses are
	// server-authored, so they get the default bound — a tight inbound
	// cap must not truncate error frames or large result payloads.
	w := NewWriter(conn, 0)
	rec, _ := s.Backend.(OpRecorder)
	var (
		req Request
		res StepResult
		ids idCache
	)
	for {
		if err := r.ReadRequest(&req); err != nil {
			if err != io.EOF {
				// Protocol failure: best-effort error frame, then drop
				// the connection — a misframed stream cannot resync.
				if errors.Is(err, ErrMalformed) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrFrameTooLarge) {
					code := jim.CodeBadInput
					if errors.Is(err, ErrFrameTooLarge) {
						code = jim.CodeBodyTooLarge
					}
					w.WriteError(string(code), err.Error())
					w.Flush()
					s.logf("wire: closing %s: %v", conn.RemoteAddr(), err)
					// Drain what the peer already sent before closing:
					// closing a TCP conn with unread receive data emits a
					// reset that would destroy the error frame in flight.
					conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					io.Copy(io.Discard, conn)
				}
			}
			return
		}
		start := time.Now()
		err := s.handle(w, &req, &res, &ids)
		if rec != nil {
			rec.RecordWireOp(req.Op.Pattern(), time.Since(start), err != nil)
		}
		if err != nil {
			// An application error: already reported in an error frame
			// unless the write itself failed.
			var je *jim.Error
			if !errors.As(err, &je) {
				return // transport write error
			}
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// handle dispatches one decoded request and writes its response frame.
// The returned error is the application error (a *jim.Error, already
// written as an error frame) or a transport write failure (fatal).
func (s *Server) handle(w *Writer, req *Request, res *StepResult, ids *idCache) error {
	switch req.Op {
	case OpCreate:
		id, err := s.Backend.WireCreate(req.CSV, req.Strategy, req.Seed)
		if err != nil {
			return s.fail(w, err)
		}
		return w.WriteCreated(id)
	case OpStep:
		if err := s.Backend.WireStep(ids.get(req.ID), req.Answers, req.K, res); err != nil {
			return s.fail(w, err)
		}
		return w.WriteStepResult(res)
	case OpAppend:
		out, err := s.Backend.WireAppend(ids.get(req.ID), req.Rows)
		if err != nil {
			return s.fail(w, err)
		}
		return w.WriteAppendResult(out)
	case OpResult:
		out, err := s.Backend.WireResult(ids.get(req.ID))
		if err != nil {
			return s.fail(w, err)
		}
		return w.WriteResultData(out)
	case OpDelete:
		if err := s.Backend.WireDelete(ids.get(req.ID)); err != nil {
			return s.fail(w, err)
		}
		return w.WriteOK()
	}
	// ReadRequest rejects unknown ops before we get here.
	return s.fail(w, &jim.Error{Code: jim.CodeBadInput, Message: "unknown op"})
}

// fail writes err as an error frame mapped through the jim taxonomy
// and returns it (or the write failure, which takes precedence since
// it kills the connection).
func (s *Server) fail(w *Writer, err error) error {
	code := jim.CodeOf(err)
	if code == "" {
		code = jim.CodeInternal
	}
	// Send the bare message: the client rebuilds a *jim.Error from
	// (code, message), so sending err.Error() would stutter the
	// "jim: code:" prefix on the far side.
	msg := err.Error()
	var je *jim.Error
	if errors.As(err, &je) && je.Message != "" {
		msg = je.Message
	}
	if werr := w.WriteError(string(code), msg); werr != nil {
		return werr
	}
	if je != nil {
		return je
	}
	return &jim.Error{Code: code, Message: msg}
}
