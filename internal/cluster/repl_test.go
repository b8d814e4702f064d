package cluster

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/store"
)

// memApplier records everything the stream delivers.
type memApplier struct {
	mu     sync.Mutex
	snaps  map[string][]*store.Snapshot
	events map[string][]store.Event
	drops  []string
}

func newMemApplier() *memApplier {
	return &memApplier{snaps: map[string][]*store.Snapshot{}, events: map[string][]store.Event{}}
}

func (a *memApplier) ApplySnapshot(id string, snap *store.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snaps[id] = append(a.snaps[id], snap)
	return nil
}

func (a *memApplier) ApplyEvent(id string, ev store.Event) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events[id] = append(a.events[id], ev)
	return nil
}

func (a *memApplier) DropReplica(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drops = append(a.drops, id)
	return nil
}

func startRepl(t *testing.T, a Applier) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &ReplServer{Applier: a, Logf: t.Logf}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func TestReplicationRoundTrip(t *testing.T) {
	a := newMemApplier()
	addr, stop := startRepl(t, a)
	defer stop()

	sh := NewShipper(ShipperOptions{Self: "n1", Target: addr, Logf: t.Logf})
	defer sh.Close()

	snap := store.Snapshot{
		Seq:      0,
		Strategy: "entropy",
		Seed:     42,
		Typing:   []string{"int", "str"},
		Skips:    []int{3, 7},
		Session:  []byte(`{"hello":"world"}`),
	}
	sh.ShipSnapshot("s0001", snap)
	sh.ShipEvent("s0001", store.Event{Seq: 1, Op: store.OpLabel, Index: 4, Label: "+"})
	sh.ShipEvent("s0001", store.Event{Seq: 2, Op: store.OpSkip, Index: 9})
	sh.ShipEvent("s0001", store.Event{Seq: 3, Op: store.OpAppend, Rows: [][]string{{"a", "b"}, {"c", "d"}}})
	sh.ShipEvent("s0001", store.Event{Seq: 4, Op: store.OpClear})
	sh.ShipDrop("s0002")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sh.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.snaps["s0001"]) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(a.snaps["s0001"]))
	}
	got := a.snaps["s0001"][0]
	if got.Strategy != "entropy" || got.Seed != 42 || string(got.Session) != `{"hello":"world"}` ||
		len(got.Typing) != 2 || len(got.Skips) != 2 {
		t.Errorf("snapshot mangled in transit: %+v", got)
	}
	evs := a.events["s0001"]
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Op != store.OpLabel || evs[0].Index != 4 || evs[0].Label != "+" || evs[0].Seq != 1 {
		t.Errorf("event 0 mangled: %+v", evs[0])
	}
	if evs[2].Op != store.OpAppend || len(evs[2].Rows) != 2 || evs[2].Rows[1][1] != "d" {
		t.Errorf("append event mangled: %+v", evs[2])
	}
	if len(a.drops) != 1 || a.drops[0] != "s0002" {
		t.Errorf("drops = %v", a.drops)
	}
	st := sh.Stats()
	if !st.Connected || st.ShippedEvents != 4 || st.QueuedEvents != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// The shipper must survive the follower dying and resync to a new
// target: snapshots are re-shipped on every (re)connect.
func TestShipperRetargetResyncs(t *testing.T) {
	a1 := newMemApplier()
	addr1, stop1 := startRepl(t, a1)

	var mu sync.Mutex
	live := map[string]store.Snapshot{
		"s0001": {Strategy: "greedy", Session: []byte(`{}`)},
		"s0002": {Strategy: "greedy", Session: []byte(`{}`)},
	}
	resync := func(ship func(id string, snap store.Snapshot)) {
		mu.Lock()
		defer mu.Unlock()
		for id, snap := range live {
			ship(id, snap)
		}
	}
	sh := NewShipper(ShipperOptions{Self: "n1", Target: addr1, Resync: resync, Logf: t.Logf})
	defer sh.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sh.Sync(ctx); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	a1.mu.Lock()
	n1 := len(a1.snaps["s0001"]) + len(a1.snaps["s0002"])
	a1.mu.Unlock()
	if n1 != 2 {
		t.Fatalf("first follower got %d resync snapshots, want 2", n1)
	}

	// Kill follower 1, retarget to follower 2: the resync must replay
	// both sessions there with no explicit re-ship from the caller.
	stop1()
	a2 := newMemApplier()
	addr2, stop2 := startRepl(t, a2)
	defer stop2()
	sh.SetTarget(addr2)

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := sh.Sync(ctx2); err != nil {
		t.Fatalf("post-retarget sync: %v", err)
	}
	a2.mu.Lock()
	n2 := len(a2.snaps["s0001"]) + len(a2.snaps["s0002"])
	a2.mu.Unlock()
	if n2 < 2 {
		t.Fatalf("retargeted follower got %d resync snapshots, want >= 2", n2)
	}
	if sh.Stats().Reconnects < 2 {
		t.Errorf("reconnects = %d, want >= 2", sh.Stats().Reconnects)
	}
}

// Dialing a dead target must back off instead of spinning.
func TestShipperBackoffOnDeadTarget(t *testing.T) {
	// Reserve an address nobody is listening on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	sh := NewShipper(ShipperOptions{Self: "n1", Target: dead})
	defer sh.Close()
	time.Sleep(600 * time.Millisecond)
	// With 25ms..2s exponential backoff the pump gets through at most
	// ~6 dial attempts in 600ms; without backoff it would be hundreds.
	if got := sh.Stats().Reconnects; got != 0 {
		t.Errorf("reconnects to a dead address = %d, want 0", got)
	}
	sh.ShipEvent("s0001", store.Event{Seq: 1, Op: store.OpClear})
	if sh.Lag() != 1 {
		t.Errorf("lag = %d, want 1 while target is dead", sh.Lag())
	}
}

// Lag must never read negative: an event is counted in before the
// pump can receive it and count it out. Enqueuers, the draining pump
// and a reader race here; the reader fails on any negative reading.
// The enqueuers hold back while a few events are queued, so the queue
// hovers near empty, where the pump takes each event the moment it is
// sent, and more Ps than cores let the OS preempt an enqueuer between
// its send and its count: both widen the window the old order left
// open.
func TestShipperLagNeverNegative(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	addr, stop := startRepl(t, newMemApplier())
	defer stop()
	sh := NewShipper(ShipperOptions{Self: "n1", Target: addr, Logf: t.Logf})
	defer sh.Close()
	for deadline := time.Now().Add(5 * time.Second); !sh.Stats().Connected; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shipper never connected")
		}
	}

	const writers, events = 8, 5000
	var (
		wg       sync.WaitGroup
		finished = make(chan struct{})
		lowest   = make(chan int64, 1)
	)
	go func() {
		low := int64(0)
		for {
			select {
			case <-finished:
				lowest <- low
				return
			default:
			}
			low = min(low, sh.Lag(), sh.Stats().QueuedEvents)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("s%04d", w)
			for i := 0; i < events; i++ {
				for sh.Lag() > writers {
					runtime.Gosched()
				}
				sh.ShipEvent(id, store.Event{Seq: uint64(i + 1), Op: store.OpClear})
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	close(finished)
	if low := <-lowest; low < 0 {
		t.Fatalf("Lag read %d while enqueueing and draining, want never negative", low)
	}
	if lag := sh.Lag(); lag != 0 {
		t.Errorf("lag after Sync = %d, want 0", lag)
	}
	if d := sh.Stats().DroppedMessages; d != 0 {
		t.Errorf("%d messages dropped: the queue overflowed instead of draining", d)
	}
}

// Queue overflow must not block the caller; it schedules a resync.
func TestShipperOverflowSchedulesResync(t *testing.T) {
	resynced := make(chan struct{}, 16)
	var mu sync.Mutex
	resync := func(ship func(id string, snap store.Snapshot)) {
		mu.Lock()
		defer mu.Unlock()
		ship("s0001", store.Snapshot{Strategy: "greedy", Session: []byte(`{}`)})
		select {
		case resynced <- struct{}{}:
		default:
		}
	}
	// No listener yet: fill the tiny queue to force drops.
	lnAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}()
	sh := NewShipper(ShipperOptions{Self: "n1", Target: lnAddr, Resync: resync, Buffer: 4, Logf: t.Logf})
	defer sh.Close()
	for i := 0; i < 64; i++ {
		sh.ShipEvent("s0001", store.Event{Seq: uint64(i + 1), Op: store.OpClear})
	}
	if sh.Stats().DroppedMessages == 0 {
		t.Fatal("expected drops on an overflowing queue")
	}
	// Now bring the follower up at that address and wait for resync.
	ln, err := net.Listen("tcp", lnAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", lnAddr, err)
	}
	a := newMemApplier()
	srv := &ReplServer{Applier: a, Logf: t.Logf}
	go srv.Serve(ln)
	defer srv.Close()
	select {
	case <-resynced:
	case <-time.After(10 * time.Second):
		t.Fatal("resync never ran after overflow + reconnect")
	}
}

// A sustained overflow must not turn the stream into back-to-back
// resyncs: a writer spinning on a 64-message queue drops messages all
// the time, and each resync re-ships every session, so the shipper
// starts a new one only after the queue drained since the last. At
// least a queue's worth of events ships per overflow resync, and once
// the writer stops the follower converges on every session's last seq.
func TestShipperOverflowResyncBounded(t *testing.T) {
	const buffer, sessions = 64, 10
	var (
		seqs     [sessions]atomic.Uint64
		resyncs  atomic.Int64
		stopping atomic.Bool
	)
	id := func(k int) string { return fmt.Sprintf("s%04d", k) }
	resync := func(ship func(id string, snap store.Snapshot)) {
		resyncs.Add(1)
		for k := range seqs {
			ship(id(k), store.Snapshot{Seq: seqs[k].Load(), Strategy: "greedy", Session: []byte(`{}`)})
		}
	}
	a := newMemApplier()
	addr, stop := startRepl(t, a)
	defer stop()
	sh := NewShipper(ShipperOptions{Self: "n1", Target: addr, Resync: resync, Buffer: buffer, Logf: t.Logf})
	defer sh.Close()
	for deadline := time.Now().Add(5 * time.Second); !sh.Stats().Connected; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shipper never connected")
		}
	}
	connect := resyncs.Load() // the connection's own resync ships no event before it
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; !stopping.Load(); k = (k + 1) % sessions {
			sh.ShipEvent(id(k), store.Event{Seq: seqs[k].Add(1), Op: store.OpClear})
		}
	}()
	time.Sleep(500 * time.Millisecond)
	stopping.Store(true)
	<-done
	st := sh.Stats()
	if st.DroppedMessages == 0 {
		t.Fatal("the spinning writer never overflowed the queue")
	}
	if n := resyncs.Load() - connect; st.ShippedEvents < buffer*n {
		t.Errorf("%d events shipped over %d overflow resyncs (%d dropped): want at least %d per resync", st.ShippedEvents, n, st.DroppedMessages, buffer)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// The last drops leave a resync due, which runs once the queue is
	// empty: every session's replica reaches its last seq.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		behind := 0
		a.mu.Lock()
		for k := range seqs {
			var last uint64
			if evs := a.events[id(k)]; len(evs) > 0 {
				last = evs[len(evs)-1].Seq
			}
			if snaps := a.snaps[id(k)]; len(snaps) > 0 {
				last = max(last, snaps[len(snaps)-1].Seq)
			}
			if last != seqs[k].Load() {
				behind++
			}
		}
		a.mu.Unlock()
		if behind == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions never converged on the follower", behind, sessions)
		}
	}
	t.Logf("%d events shipped over %d resyncs, %d messages dropped", st.ShippedEvents, resyncs.Load(), st.DroppedMessages)
}

func TestParsePeersRoundTripWithMembership(t *testing.T) {
	spec := "n1=127.0.0.1:1|127.0.0.1:2|127.0.0.1:3,n2=127.0.0.1:4|127.0.0.1:5|127.0.0.1:6"
	nodes, err := ParsePeers(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMembership(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 1000; i++ {
		seen[m.OwnerID(fmt.Sprintf("s%04d", i))]++
	}
	if seen["n1"] == 0 || seen["n2"] == 0 {
		t.Errorf("ownership split = %v, want both nodes represented", seen)
	}
}

// listenLocal opens a loopback listener on a free port.
func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// Close must wait for every stream it accepted: the Heartbeat hook,
// which a stream runs on its hello, never fires once Close returned.
// The window is narrow; under -race the detector also flags a
// WaitGroup Add that is not ordered before Close's Wait.
func TestReplServerCloseWaitsForStreams(t *testing.T) {
	hello := codec.AppendString(nil, "n1")
	open := append(append([]byte(replMagic), byte(len(hello))), hello...)
	var late atomic.Int64
	for i := 0; i < 200; i++ {
		ln := listenLocal(t)
		var closed atomic.Bool
		srv := &ReplServer{Applier: fuzzApplier{}, Heartbeat: func(string) {
			if closed.Load() {
				late.Add(1)
			}
		}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln)
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(open); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		closed.Store(true)
		<-done
		conn.Close()
	}
	time.Sleep(50 * time.Millisecond) // let a straggling stream report
	if n := late.Load(); n > 0 {
		t.Fatalf("the Heartbeat hook ran %d times after Close returned", n)
	}
}

// A full queue must not starve heartbeats: the pump writes them on its
// own ticker, so a stream whose tiny queue a writer keeps full still
// renews the follower's lease at a steady rate.
func TestHeartbeatsBypassFullQueue(t *testing.T) {
	const every, run = 50 * time.Millisecond, 2 * time.Second
	ln := listenLocal(t)
	var mu sync.Mutex
	var beats []time.Time
	srv := &ReplServer{Applier: fuzzApplier{}, Heartbeat: func(string) {
		mu.Lock()
		beats = append(beats, time.Now())
		mu.Unlock()
	}}
	go srv.Serve(ln)
	defer srv.Close()
	sh := NewShipper(ShipperOptions{Self: "n1", Target: ln.Addr().String(), Buffer: 4, HeartbeatEvery: every})
	defer sh.Close()
	for deadline := time.Now().Add(5 * time.Second); !sh.Stats().Connected; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shipper never connected")
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			sh.ShipEvent("s0001", store.Event{Seq: seq, Op: store.OpClear})
		}
	}()
	mu.Lock()
	start := len(beats) // the hello renews too
	mu.Unlock()
	begin := time.Now()
	time.Sleep(run)
	close(stop)
	wg.Wait()
	mu.Lock()
	got := beats[start:]
	mu.Unlock()
	gap, last := time.Duration(0), begin
	for _, b := range got {
		gap, last = max(gap, b.Sub(last)), b
	}
	gap = max(gap, begin.Add(run).Sub(last))
	t.Logf("%d heartbeats in %v at a %v period under a full queue (%d messages dropped); longest gap %v",
		len(got), run, every, sh.Stats().DroppedMessages, gap)
	if want := int(run / every * 3 / 4); len(got) < want {
		t.Errorf("%d heartbeats in %v, want at least %d", len(got), run, want)
	}
	if gap > 4*every {
		t.Errorf("longest gap between heartbeats %v, want at most %v", gap, 4*every)
	}
}
