package wire

import (
	"net"
	"time"
)

// Client drives one wire-protocol connection. Not safe for concurrent
// use — the protocol is an ordered request/response stream, so each
// goroutine (benchmark client, CLI session) owns its own Client, exactly
// like each owns its dialogue.
//
// The synchronous methods (Create, Step, …) write, flush, and read one
// response. For pipelining, pair the Send* methods with the matching
// Recv* methods: queue any number of requests, Flush once, then read
// the responses in the same order.
type Client struct {
	conn net.Conn
	r    *Reader
	w    *Writer
	res  StepResult
}

// Dial connects to a wire listener. maxFrame <= 0 means
// DefaultMaxFrame; it must be at least the server's cap to read large
// result frames, and is also the client's own outbound cap.
func Dial(addr string, maxFrame int) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Frames are tiny; Nagle would add 40ms to every round trip.
		tc.SetNoDelay(true)
	}
	return NewClient(conn, maxFrame), nil
}

// NewClient wraps an established connection (tests use net.Pipe).
func NewClient(conn net.Conn, maxFrame int) *Client {
	return &Client{
		conn: conn,
		r:    NewReader(conn, maxFrame),
		w:    NewWriter(conn, maxFrame),
	}
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetDeadline bounds all subsequent reads and writes.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Flush pushes queued request frames to the transport.
func (c *Client) Flush() error { return c.w.Flush() }

// Create opens a session and returns its id.
func (c *Client) Create(csv, strategy string, seed int64) (string, error) {
	if err := c.w.WriteCreate(csv, strategy, seed); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.r.ReadCreated()
}

// Step applies the answers and asks for the next proposal(s) in one
// round trip. The returned StepResult is owned by the Client and valid
// only until the next Step/RecvStep call — copy to keep.
func (c *Client) Step(id string, answers []Answer, k int) (*StepResult, error) {
	if err := c.SendStep(id, answers, k); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	if err := c.r.ReadStepResult(&c.res); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// SendStep queues a step request without flushing (pipelining).
func (c *Client) SendStep(id string, answers []Answer, k int) error {
	return c.w.WriteStep(id, answers, k)
}

// RecvStep reads the next step response into res (reusing its slices).
// Responses arrive in the order the requests were sent.
func (c *Client) RecvStep(res *StepResult) error {
	return c.r.ReadStepResult(res)
}

// Append streams arrival tuples into the session.
func (c *Client) Append(id string, rows [][]string) (AppendResult, error) {
	if err := c.w.WriteAppend(id, rows); err != nil {
		return AppendResult{}, err
	}
	if err := c.w.Flush(); err != nil {
		return AppendResult{}, err
	}
	return c.r.ReadAppendResult()
}

// Result reads the inferred query.
func (c *Client) Result(id string) (ResultData, error) {
	if err := c.w.WriteSimple(OpResult, id); err != nil {
		return ResultData{}, err
	}
	if err := c.w.Flush(); err != nil {
		return ResultData{}, err
	}
	return c.r.ReadResultData()
}

// Delete drops the session.
func (c *Client) Delete(id string) error {
	if err := c.w.WriteSimple(OpDelete, id); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.r.ReadOK()
}
