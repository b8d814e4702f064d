package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/store"
)

// Replication stream: the owner dials its designated follower's
// -repl-addr and pushes uvarint-length-prefixed frames (the same
// functions as internal/wire: codec.ReadStreamFrame, WriteStreamFrame
// and the codec.Listener accept loop; no CRC — TCP checksums the
// path, and the payloads reuse the store's v2 codec byte-for-byte).
//
//	owner -> follower:  "JRP1", hello(sender id), then a stream of
//	                    snapshot / event / drop / sync frames
//	follower -> owner:  one ack frame per sync frame, echoing its token
//
// The stream is deliberately at-least-once: on reconnect or queue
// overflow the shipper re-ships a fresh snapshot of every live
// session (the Resync callback), and the follower dedups by the
// per-session replication sequence number carried in every frame.

const (
	replMagic = "JRP1"

	msgSnapshot  = 1
	msgEvent     = 2
	msgDrop      = 3
	msgSync      = 4
	msgHeartbeat = 5

	// defaultMaxReplFrame bounds a single replication frame; a
	// snapshot carries a whole session, so the cap is generous.
	defaultMaxReplFrame = 64 << 20

	replBackoffMin = 25 * time.Millisecond
	replBackoffMax = 2 * time.Second
)

func appendReplMsg(enc []byte, m shipMsg) ([]byte, error) {
	enc = append(enc[:0], m.kind)
	switch m.kind {
	case msgEvent:
		enc = codec.AppendString(enc, m.id)
		return store.AppendEventPayload(enc, m.ev)
	case msgSnapshot:
		enc = codec.AppendString(enc, m.id)
		return store.AppendSnapshotPayload(enc, *m.snap), nil
	case msgDrop:
		return codec.AppendString(enc, m.id), nil
	case msgSync:
		return binary.AppendUvarint(enc, m.tok), nil
	case msgHeartbeat:
		// The kind byte is the whole message: the sender is known from
		// the hello, and arrival itself is the payload.
		return enc, nil
	default:
		return enc, fmt.Errorf("cluster: unknown repl message kind %d", m.kind)
	}
}

// Applier is the follower side of the stream: the server applies
// shipped state into its replica set through the same restore path
// that crash recovery uses. Apply errors do not kill the stream — the
// session heals at its next shipped snapshot.
type Applier interface {
	ApplySnapshot(id string, snap *store.Snapshot) error
	ApplyEvent(id string, ev store.Event) error
	DropReplica(id string) error
}

// ReplServer accepts replication streams on a -repl-addr listener and
// feeds them to an Applier.
type ReplServer struct {
	Applier Applier
	Logf    func(format string, args ...any)
	// Heartbeat, if set, is invoked with the sending node's id when a
	// stream opens and on every heartbeat frame — the failure
	// detector's lease-renewal signal.
	Heartbeat func(from string)
	MaxFrame  int // per-frame byte cap; 0 = default 64 MiB

	l codec.Listener
}

func (s *ReplServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts streams on ln until Close. It returns nil after a
// clean Close (also when Close came first), or the accept error
// otherwise.
func (s *ReplServer) Serve(ln net.Listener) error {
	if err := s.l.Serve(ln, s.serveConn); err != codec.ErrListenerClosed {
		return err
	}
	return nil
}

// Close stops the listener, closes live streams, and waits for
// per-connection goroutines to drain.
func (s *ReplServer) Close() {
	s.l.Shutdown(context.Background(), 0)
}

func (s *ReplServer) serveConn(conn net.Conn) {
	max := s.MaxFrame
	if max <= 0 {
		max = defaultMaxReplFrame
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 4<<10)
	magic := make([]byte, len(replMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != replMagic {
		s.logf("cluster: repl conn %s: bad magic", conn.RemoteAddr())
		return
	}
	var buf []byte
	payload, err := codec.ReadStreamFrame(br, max, &buf)
	if err != nil {
		s.logf("cluster: repl conn %s: hello: %v", conn.RemoteAddr(), err)
		return
	}
	from, err := parseHello(payload)
	if err != nil {
		s.logf("cluster: repl conn %s: %v", conn.RemoteAddr(), err)
		return
	}
	s.logf("cluster: replication stream open from %s (%s)", from, conn.RemoteAddr())
	if s.Heartbeat != nil {
		s.Heartbeat(from)
	}
	var ackBuf []byte
	for {
		payload, err = codec.ReadStreamFrame(br, max, &buf)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("cluster: repl stream from %s: %v", from, err)
			}
			return
		}
		fatal, err := s.handleFrame(from, payload, bw, &ackBuf)
		if err != nil {
			s.logf("cluster: repl stream from %s: %v", from, err)
			if fatal {
				return
			}
		}
	}
}

// parseHello decodes the stream-opening hello frame: one
// codec-encoded string carrying the sender's node id.
func parseHello(payload []byte) (from string, err error) {
	hc := codec.Cursor{B: payload}
	from, err = hc.Str()
	if err != nil || hc.Done() != nil {
		return "", fmt.Errorf("%w: malformed hello", codec.ErrMalformed)
	}
	return from, nil
}

// handleFrame applies one frame. A decode failure is fatal (the
// stream is out of sync); an Applier error is not (the session heals
// at its next snapshot).
func (s *ReplServer) handleFrame(from string, payload []byte, bw *bufio.Writer, ackBuf *[]byte) (fatal bool, err error) {
	c := codec.Cursor{B: payload}
	kind, err := c.Byte()
	if err != nil {
		return true, err
	}
	switch kind {
	case msgSnapshot:
		id, err := c.Str()
		if err != nil {
			return true, err
		}
		snap, err := store.DecodeSnapshotPayload(c.B)
		if err != nil {
			return true, fmt.Errorf("snapshot for %q: %w", id, err)
		}
		return false, s.Applier.ApplySnapshot(id, snap)
	case msgEvent:
		id, err := c.Str()
		if err != nil {
			return true, err
		}
		ev, err := store.DecodeEventPayload(c.B)
		if err != nil {
			return true, fmt.Errorf("event for %q: %w", id, err)
		}
		return false, s.Applier.ApplyEvent(id, ev)
	case msgDrop:
		id, err := c.Str()
		if err != nil || c.Done() != nil {
			return true, fmt.Errorf("%w: malformed drop frame", codec.ErrMalformed)
		}
		return false, s.Applier.DropReplica(id)
	case msgSync:
		tok, err := c.Uvarint()
		if err != nil || c.Done() != nil {
			return true, fmt.Errorf("%w: malformed sync frame", codec.ErrMalformed)
		}
		*ackBuf = binary.AppendUvarint((*ackBuf)[:0], tok)
		if err := codec.WriteStreamFrame(bw, *ackBuf); err != nil {
			return true, err
		}
		if err := bw.Flush(); err != nil {
			return true, err
		}
		return false, nil
	case msgHeartbeat:
		if err := c.Done(); err != nil {
			return true, fmt.Errorf("%w: malformed heartbeat frame", codec.ErrMalformed)
		}
		if s.Heartbeat != nil {
			s.Heartbeat(from)
		}
		return false, nil
	default:
		return true, fmt.Errorf("%w: unknown repl message kind %d", codec.ErrMalformed, kind)
	}
}

type shipMsg struct {
	kind byte
	id   string
	ev   store.Event
	snap *store.Snapshot
	tok  uint64
}

// ShipperOptions configures a Shipper.
type ShipperOptions struct {
	// Self is our node id, announced in the stream hello.
	Self string
	// Target is the follower's repl address; "" parks the shipper
	// until SetTarget provides one.
	Target string
	// Resync is invoked on every (re)connect and after a queue
	// overflow, once the queue has drained since the last resync: it
	// must ship a current snapshot of every live session through the
	// provided callback. Combined with seq dedup on the follower this
	// makes the stream self-healing.
	Resync func(ship func(id string, snap store.Snapshot))
	Logf   func(format string, args ...any)
	// Buffer is the queue capacity in messages (default 8192).
	// Overflow never blocks the serving path: the message is dropped
	// and a resync is scheduled.
	Buffer int
	// HeartbeatEvery, when > 0, makes the pump write a heartbeat frame
	// on that period while connected, so the follower's failure
	// detector sees lease renewals. The follower renews the lease only
	// on the hello and on heartbeat frames, so heartbeats bypass the
	// queue: a busy queue neither delays nor drops them.
	HeartbeatEvery time.Duration
}

// Shipper streams committed WAL frames to the designated follower.
// Enqueueing never blocks request handling; delivery is asynchronous
// with reconnect + resync on any failure.
type Shipper struct {
	opts      ShipperOptions
	queue     chan shipMsg
	retarget  chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu     sync.Mutex
	target string

	connected  atomic.Bool
	needResync atomic.Bool
	lag        atomic.Int64 // events enqueued, not yet written out
	shipEvents atomic.Int64
	shipSnaps  atomic.Int64
	dropped    atomic.Int64
	reconnects atomic.Int64
	syncTok    atomic.Uint64
	lastAck    atomic.Uint64
	ackNotify  chan struct{}
}

// NewShipper starts the pump goroutine and returns the shipper.
func NewShipper(opts ShipperOptions) *Shipper {
	if opts.Buffer <= 0 {
		opts.Buffer = 8192
	}
	sh := &Shipper{
		opts:      opts,
		queue:     make(chan shipMsg, opts.Buffer),
		retarget:  make(chan struct{}, 1),
		done:      make(chan struct{}),
		ackNotify: make(chan struct{}, 1),
		target:    opts.Target,
	}
	sh.wg.Add(1)
	go sh.pump()
	return sh
}

func (sh *Shipper) logf(format string, args ...any) {
	if sh.opts.Logf != nil {
		sh.opts.Logf(format, args...)
	}
}

// Target returns the current follower repl address.
func (sh *Shipper) Target() string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.target
}

// SetTarget points the stream at a new follower (after a promotion
// reshapes the ring). The current connection is abandoned and the new
// one starts with a full resync.
func (sh *Shipper) SetTarget(addr string) {
	sh.mu.Lock()
	changed := sh.target != addr
	sh.target = addr
	sh.mu.Unlock()
	if changed {
		select {
		case sh.retarget <- struct{}{}:
		default:
		}
	}
}

// enqueue counts an event into the lag before the send: the pump may
// receive it and count it out before a send that returned could count
// it in, and Lag would read −1 for that moment.
func (sh *Shipper) enqueue(m shipMsg) {
	if m.kind == msgEvent {
		sh.lag.Add(1)
	}
	select {
	case sh.queue <- m:
	default:
		if m.kind == msgEvent {
			sh.lag.Add(-1)
		}
		sh.dropped.Add(1)
		sh.needResync.Store(true)
	}
}

// ShipEvent enqueues one committed event for id. ev.Seq must carry
// the session's replication sequence number.
func (sh *Shipper) ShipEvent(id string, ev store.Event) {
	sh.enqueue(shipMsg{kind: msgEvent, id: id, ev: ev})
}

// ShipSnapshot enqueues a full session snapshot. snap.Seq must carry
// the session's replication sequence number at capture time.
func (sh *Shipper) ShipSnapshot(id string, snap store.Snapshot) {
	sh.enqueue(shipMsg{kind: msgSnapshot, id: id, snap: &snap})
}

// ShipDrop tells the follower to discard its replica of id.
func (sh *Shipper) ShipDrop(id string) {
	sh.enqueue(shipMsg{kind: msgDrop, id: id})
}

// Sync blocks until the follower has acknowledged everything enqueued
// before the call (or ctx expires). The token is re-sent on a timer
// so it survives reconnects that drop the in-flight sync frame.
func (sh *Shipper) Sync(ctx context.Context) error {
	tok := sh.syncTok.Add(1)
	for {
		if sh.lastAck.Load() >= tok {
			return nil
		}
		sh.enqueue(shipMsg{kind: msgSync, tok: tok})
		t := time.NewTimer(100 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-sh.done:
			t.Stop()
			return errors.New("cluster: shipper closed")
		case <-sh.ackNotify:
			t.Stop()
		case <-t.C:
		}
	}
}

// Lag is the number of committed events enqueued but not yet written
// to the follower — the replication lag /healthz reports.
func (sh *Shipper) Lag() int64 { return sh.lag.Load() }

// ShipStats is a point-in-time view for /healthz.
type ShipStats struct {
	Target           string `json:"target"`
	Connected        bool   `json:"connected"`
	QueuedEvents     int64  `json:"queued_events"`
	ShippedEvents    int64  `json:"shipped_events"`
	ShippedSnapshots int64  `json:"shipped_snapshots"`
	DroppedMessages  int64  `json:"dropped_messages"`
	Reconnects       int64  `json:"reconnects"`
}

// Stats snapshots the shipper counters.
func (sh *Shipper) Stats() ShipStats {
	return ShipStats{
		Target:           sh.Target(),
		Connected:        sh.connected.Load(),
		QueuedEvents:     sh.lag.Load(),
		ShippedEvents:    sh.shipEvents.Load(),
		ShippedSnapshots: sh.shipSnaps.Load(),
		DroppedMessages:  sh.dropped.Load(),
		Reconnects:       sh.reconnects.Load(),
	}
}

// Close stops the pump and abandons any queued messages.
func (sh *Shipper) Close() {
	sh.closeOnce.Do(func() { close(sh.done) })
	sh.wg.Wait()
}

func (sh *Shipper) pump() {
	defer sh.wg.Done()
	backoff := replBackoffMin
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var encBuf []byte
	for {
		select {
		case <-sh.done:
			return
		default:
		}
		addr := sh.Target()
		if addr == "" {
			select {
			case <-sh.done:
				return
			case <-sh.retarget:
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			sh.logf("cluster: ship dial %s: %v (retry in ~%v)", addr, err, backoff)
			select {
			case <-sh.done:
				return
			case <-sh.retarget:
				backoff = replBackoffMin
			case <-time.After(jitterDuration(rng, backoff)):
				backoff *= 2
				if backoff > replBackoffMax {
					backoff = replBackoffMax
				}
			}
			continue
		}
		backoff = replBackoffMin
		sh.reconnects.Add(1)
		encBuf = sh.runConn(conn, encBuf)
		conn.Close()
		sh.connected.Store(false)
	}
}

// jitterDuration spreads d over [d/2, d) so a fleet of shippers
// redialing a recovering node does not synchronize.
func jitterDuration(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)))
}

func (sh *Shipper) runConn(conn net.Conn, encBuf []byte) []byte {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	if _, err := bw.WriteString(replMagic); err != nil {
		return encBuf
	}
	encBuf = codec.AppendString(encBuf[:0], sh.opts.Self)
	if err := codec.WriteStreamFrame(bw, encBuf); err != nil {
		return encBuf
	}
	shipSnap := func(id string, snap store.Snapshot) {
		var err error
		encBuf, err = appendReplMsg(encBuf, shipMsg{kind: msgSnapshot, id: id, snap: &snap})
		if err != nil {
			sh.logf("cluster: encode resync snapshot %q: %v", id, err)
			return
		}
		if werr := codec.WriteStreamFrame(bw, encBuf); werr == nil {
			sh.shipSnaps.Add(1)
		}
	}
	if sh.opts.Resync != nil {
		sh.opts.Resync(shipSnap)
	}
	sh.needResync.Store(false)
	if err := bw.Flush(); err != nil {
		return encBuf
	}
	sh.connected.Store(true)
	sh.logf("cluster: shipping to %s", conn.RemoteAddr())

	// Acks flow back on the same conn; a dedicated reader keeps them
	// draining while the pump writes.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		br := bufio.NewReaderSize(conn, 4<<10)
		var buf []byte
		for {
			payload, err := codec.ReadStreamFrame(br, 64, &buf)
			if err != nil {
				return
			}
			tok, n := binary.Uvarint(payload)
			if n <= 0 {
				return
			}
			for {
				cur := sh.lastAck.Load()
				if tok <= cur || sh.lastAck.CompareAndSwap(cur, tok) {
					break
				}
			}
			select {
			case sh.ackNotify <- struct{}{}:
			default:
			}
		}
	}()
	defer func() {
		conn.Close()
		<-ackDone
	}()

	var heartbeat <-chan time.Time
	if sh.opts.HeartbeatEvery > 0 {
		t := time.NewTicker(sh.opts.HeartbeatEvery)
		defer t.Stop()
		heartbeat = t.C
	}
	// A resync is due once the queue overflowed, but a new one starts
	// only after the pump has taken a full queue's worth of messages
	// since the last: the queue was full at the drop, so that is when
	// it has drained since. Under a sustained overflow every message
	// drops again while a resync runs, and re-shipping each time the
	// flag is set would leave the stream doing little but resyncs.
	taken := 0
	for {
		if sh.needResync.Load() && taken >= cap(sh.queue) {
			// Queue overflowed while connected: at least one message
			// is gone, so re-ship snapshots before continuing.
			sh.needResync.Store(false)
			taken = 0
			if sh.opts.Resync != nil {
				sh.opts.Resync(shipSnap)
			}
			if err := bw.Flush(); err != nil {
				return encBuf
			}
		}
		var m shipMsg
		select {
		case <-sh.done:
			bw.Flush()
			return encBuf
		case <-sh.retarget:
			bw.Flush()
			return encBuf
		case <-ackDone:
			return encBuf
		case <-heartbeat:
			m.kind = msgHeartbeat
		case m = <-sh.queue:
			taken++
		}
		if m.kind == msgEvent {
			sh.lag.Add(-1)
		}
		var err error
		encBuf, err = appendReplMsg(encBuf, m)
		if err != nil {
			sh.logf("cluster: encode repl message: %v", err)
			continue
		}
		if err := codec.WriteStreamFrame(bw, encBuf); err != nil {
			return encBuf
		}
		switch m.kind {
		case msgEvent:
			sh.shipEvents.Add(1)
		case msgSnapshot:
			sh.shipSnaps.Add(1)
		}
		// Flush when the queue is momentarily empty — batches bursts
		// into one syscall without adding latency at the tail. A
		// heartbeat goes out at once, however busy the queue.
		if len(sh.queue) == 0 || m.kind == msgHeartbeat {
			if err := bw.Flush(); err != nil {
				return encBuf
			}
		}
	}
}
