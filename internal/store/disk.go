package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/codec"
)

// The files of one session directory. snapBinFile is the format-v2
// snapshot; snapFile is its v1 JSON predecessor, still readable and
// superseded (removed) by the next snapshot write. The WAL keeps one
// name across formats — its format is sniffed from the magic bytes.
const (
	snapFile    = "snap.json"
	snapBinFile = "snap.bin"
	walFile     = "wal.log"
)

// DiskOptions configures the disk backend.
type DiskOptions struct {
	// Dir is the data directory; session state lives under
	// Dir/sessions/<id>/. Created if missing.
	Dir string
	// Fsync, when true, makes AppendEvent and Snapshot wait for the data
	// to reach stable storage (group-committed: one fsync per touched
	// log per batch of concurrent appends). When false, writes go
	// through the OS page cache — a process crash loses nothing, a
	// machine crash may lose the tail.
	Fsync bool
}

// Disk is the durable backend: one directory per session holding an
// append-only WAL of events and the most recent snapshot, both in the
// CRC-framed binary format v2 (v1 JSON directories remain readable
// and upgrade on their next snapshot). All file IO funnels through a
// single committer goroutine, which gives strict ordering, a natural
// group commit for fsync batching, and file-handle state without
// locks.
type Disk struct {
	dir   string
	fsync bool

	// syncWAL makes one WAL durable; (*os.File).Sync in production,
	// swappable in tests to exercise the fsync-failure path.
	syncWAL func(*os.File) error

	reqs chan *diskReq

	// lock holds the flock on Dir/LOCK for the store's lifetime, so a
	// second process pointed at the same directory fails fast instead
	// of interleaving truncates with this one's appends.
	lock *os.File

	// mu guards closed so Close cannot race senders on reqs.
	mu     sync.RWMutex
	closed bool
	done   chan struct{} // closed when the committer exits
}

// reqKind discriminates committer requests.
type reqKind int

const (
	reqAppend reqKind = iota
	reqSnapshot
	reqCompact
	reqLoadAll
)

// diskReq is one unit of work for the committer goroutine.
type diskReq struct {
	kind reqKind
	id   string
	ev   Event
	snap Snapshot
	// err reports completion; buffered so the committer never blocks.
	err chan error
	// saved receives the LoadAll result.
	saved chan []Saved
}

// NewDisk opens (or creates) a disk store rooted at opts.Dir. The
// directory is flock-guarded: two live stores on one directory would
// interleave each other's WAL appends and snapshot truncates and
// destroy acknowledged events, so the second opener fails fast. The
// lock dies with the process, so a crash never leaves the directory
// unopenable.
func NewDisk(opts DiskOptions) (*Disk, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: disk backend requires a data directory")
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data directory: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(opts.Dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: data directory %s is held by another process: %w", opts.Dir, err)
	}
	d := &Disk{
		dir:     opts.Dir,
		fsync:   opts.Fsync,
		syncWAL: (*os.File).Sync,
		reqs:    make(chan *diskReq, 256),
		lock:    lock,
		done:    make(chan struct{}),
	}
	go d.run()
	return d, nil
}

// Name reports "disk".
func (*Disk) Name() string { return "disk" }

// Format reports the on-disk format new writes use ("v2"); v1 JSON
// directories stay readable until their next snapshot upgrades them.
func (*Disk) Format() string { return FormatV2 }

// Dir returns the data directory the store was opened on.
func (d *Disk) Dir() string { return d.dir }

// submit hands one request to the committer and waits for completion.
func (d *Disk) submit(req *diskReq) error {
	req.err = make(chan error, 1)
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return fmt.Errorf("store: disk store is closed")
	}
	d.reqs <- req
	d.mu.RUnlock()
	return <-req.err
}

// AppendEvent logs one event to the session's WAL; it returns after
// the write (and, with Fsync, the flush) completed.
func (d *Disk) AppendEvent(id string, ev Event) error {
	if err := validID(id); err != nil {
		return err
	}
	return d.submit(&diskReq{kind: reqAppend, id: id, ev: ev})
}

// Snapshot atomically replaces the session's snapshot (write to a
// temporary file, rename over) and truncates its WAL. The rename is
// made durable before the truncate, so a crash between the two leaves
// snapshot + stale WAL — whose events LoadAll discards by sequence.
func (d *Disk) Snapshot(id string, snap Snapshot) error {
	if err := validID(id); err != nil {
		return err
	}
	return d.submit(&diskReq{kind: reqSnapshot, id: id, snap: snap})
}

// Compact removes the session's directory entirely.
func (d *Disk) Compact(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return d.submit(&diskReq{kind: reqCompact, id: id})
}

// LoadAll scans the sessions directory and returns, per session, the
// snapshot and the WAL events newer than it, sorted by session id. A
// torn final WAL record (crash mid-write) is ignored; anything after
// it is unreachable by construction (the log is append-only).
//
// An unreadable session does not abort the scan: it comes back as a
// bare Saved{ID} (so callers can still account for its id) alongside
// the readable sessions, with the per-session failures joined into the
// returned error — one corrupt directory must not block the recovery
// of every other session. Casualty sessions are additionally poisoned:
// further appends against their id are refused until a snapshot
// rebuilds the directory from scratch.
func (d *Disk) LoadAll() ([]Saved, error) {
	req := &diskReq{kind: reqLoadAll, saved: make(chan []Saved, 1)}
	err := d.submit(req)
	var saved []Saved
	select {
	case saved = <-req.saved:
	default: // submit refused (closed store): nothing was sent
	}
	return saved, err
}

// Close drains in-flight requests, closes every file handle, and
// releases the directory lock.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return nil
	}
	d.closed = true
	close(d.reqs)
	d.mu.Unlock()
	<-d.done
	_ = syscall.Flock(int(d.lock.Fd()), syscall.LOCK_UN)
	return d.lock.Close()
}

// committer state: one coordinator goroutine owning batch formation
// and ordering; the file IO of a batch fans out per session, since
// requests for different sessions touch disjoint directories, files,
// and sequence spaces.

// run processes requests in arrival order. Consecutive queued requests
// form one batch; within a batch, each session's requests are applied
// in order and its WAL is fsynced once (the group commit), with
// different sessions committing in parallel so one slow fsync does not
// serialize the fleet.
func (d *Disk) run() {
	defer close(d.done)
	c := &committer{d: d, wals: make(map[string]*walHandle), lastSeq: make(map[string]uint64)}
	defer c.closeAll()
	for req := range d.reqs {
		batch := []*diskReq{req}
	drain:
		for {
			select {
			case r, ok := <-d.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		c.commit(batch)
		// Between batches no goroutine holds a WAL handle, so this is
		// the one safe point to bound the handle cache: without it, a
		// server cycling through many thousands of sessions would hold
		// one file descriptor per session forever and exhaust the
		// process's fd limit.
		c.trimHandles(maxOpenWALs)
	}
}

// maxOpenWALs bounds the committer's open-handle cache — comfortably
// under a default 1024 nofile limit while keeping the hot working set
// open. Evicted handles reopen transparently (O_APPEND) on next use.
const maxOpenWALs = 512

// trimHandles closes arbitrary cached WAL handles until at most limit
// remain. Only call between batches, when no commit goroutine holds a
// handle.
func (c *committer) trimHandles(limit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, h := range c.wals {
		if len(c.wals) <= limit {
			break
		}
		h.f.Close()
		delete(c.wals, id)
	}
}

// walHandle is one cached open WAL plus its sniffed format. legacy
// marks a v1 JSON-lines file: appends to it stay JSON (mixing formats
// inside one file would defeat sniffing) until the next snapshot
// truncates it, after which new appends open with the v2 magic — the
// one-way upgrade. The handle is only touched by its session's commit
// goroutine within a batch, with batches sequenced by the committer.
type walHandle struct {
	f      *os.File
	legacy bool
}

type committer struct {
	d *Disk
	// mu guards the maps and the encode-buffer free list below; the
	// files themselves are touched only by their session's goroutine
	// within a batch.
	mu sync.Mutex
	// wals caches open WAL handles (O_APPEND) with their format.
	wals map[string]*walHandle
	// lastSeq is the last assigned sequence number per session,
	// initialized lazily from disk (and by LoadAll).
	lastSeq map[string]uint64
	// broken marks WALs poisoned by a failed write that could not be
	// truncated away (the log may hold a torn record mid-file) or by a
	// LoadAll casualty (the directory's durable state is unreadable):
	// further appends are refused until a snapshot rebuilds the log
	// from nothing. nil until first needed.
	broken map[string]bool
	// enc is the free list of encode-buffer pairs the commit
	// goroutines reuse, so the steady-state append encode allocates
	// nothing. Deliberately not a sync.Pool — GC would drain it and
	// reintroduce the allocations it exists to kill.
	enc []*encState
}

// encState is one reusable encode workspace: the event payload and
// the CRC frame assembled around it (written in a single syscall).
type encState struct {
	payload []byte
	frame   []byte
}

func (c *committer) getEnc() *encState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.enc); n > 0 {
		es := c.enc[n-1]
		c.enc = c.enc[:n-1]
		return es
	}
	return &encState{}
}

func (c *committer) putEnc(es *encState) {
	c.mu.Lock()
	c.enc = append(c.enc, es)
	c.mu.Unlock()
}

// poison refuses further appends to id until a snapshot repairs it.
func (c *committer) poison(id string) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = make(map[string]bool)
	}
	c.broken[id] = true
	c.mu.Unlock()
}

// unassign rolls back the most recently assigned sequence number of
// id — its event was never written.
func (c *committer) unassign(id string) {
	c.mu.Lock()
	c.lastSeq[id]--
	c.mu.Unlock()
}

// commit splits the batch at LoadAll barriers (a directory scan
// commutes with nothing) and commits each segment with per-session
// parallelism.
func (c *committer) commit(batch []*diskReq) {
	var seg []*diskReq
	flush := func() {
		if len(seg) > 0 {
			c.commitSegment(seg)
			seg = nil
		}
	}
	for _, req := range batch {
		if req.kind == reqLoadAll {
			flush()
			saved, err := c.loadAll()
			req.saved <- saved
			req.err <- err
			continue
		}
		seg = append(seg, req)
	}
	flush()
}

// commitSegment groups a segment by session and commits the groups
// concurrently; order within each session is preserved exactly.
func (c *committer) commitSegment(seg []*diskReq) {
	groups := make(map[string][]*diskReq)
	var order []string
	for _, req := range seg {
		if _, ok := groups[req.id]; !ok {
			order = append(order, req.id)
		}
		groups[req.id] = append(groups[req.id], req)
	}
	if len(order) == 1 {
		c.commitSession(order[0], groups[order[0]])
		return
	}
	var wg sync.WaitGroup
	for _, id := range order {
		wg.Add(1)
		go func(id string, reqs []*diskReq) {
			defer wg.Done()
			c.commitSession(id, reqs)
		}(id, groups[id])
	}
	wg.Wait()
}

// commitSession applies one session's requests in order, issues at
// most one fsync for its WAL, then acks every waiter.
func (c *committer) commitSession(id string, reqs []*diskReq) {
	results := make([]error, len(reqs))
	var dirty *os.File
	for i, req := range reqs {
		switch req.kind {
		case reqAppend:
			f, err := c.appendEvent(id, req.ev)
			if err == nil && c.d.fsync {
				dirty = f
			}
			results[i] = err
		case reqSnapshot:
			// A successful snapshot supersedes every event written so
			// far, including unsynced ones from this batch: drop the
			// pending fsync — the WAL was truncated. A FAILED snapshot
			// leaves the WAL standing, so the earlier appends still owe
			// their fsync before they may be acked.
			if results[i] = c.snapshot(id, req.snap); results[i] == nil {
				dirty = nil
			}
		case reqCompact:
			// Same asymmetry: only a successful compact removed the WAL.
			// (A failed one has closed the handle, so the pending Sync
			// fails and the batch's appends report the error — the safe
			// side of an already-broken directory.)
			if results[i] = c.compact(id); results[i] == nil {
				dirty = nil
			}
		}
	}
	var fsyncErr error
	if dirty != nil {
		if err := c.d.syncWAL(dirty); err != nil {
			fsyncErr = fmt.Errorf("store: fsync wal: %w", err)
			// After a failed fsync the kernel may have dropped the dirty
			// pages, so the durable prefix of the log is unknown and a
			// retried Sync could falsely succeed. Poison the WAL: appends
			// are refused until a snapshot rebuilds it from scratch.
			c.poison(id)
		}
	}
	for i, req := range reqs {
		// A failed fsync fails the whole batch, not just the appends: the
		// group commit deferred every waiter's durability to this one
		// Sync, so a snapshot or compact acked out of the same batch
		// would claim a durability the session no longer has.
		if results[i] == nil && fsyncErr != nil {
			results[i] = fsyncErr
		}
		req.err <- results[i]
	}
}

func (c *committer) sessionDir(id string) string {
	return filepath.Join(c.d.dir, "sessions", id)
}

// wal returns the open WAL handle for id, creating the session
// directory and file on first use and sniffing the file's format (a
// non-empty log without the v2 magic is a legacy v1 JSON file).
func (c *committer) wal(id string) (*walHandle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.wals[id]; ok {
		return h, nil
	}
	dir := c.sessionDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating session dir: %w", err)
	}
	// O_RDWR rather than O_WRONLY: the format sniff reads the magic
	// back; O_APPEND still forces every write to the tail.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal: %w", err)
	}
	h := &walHandle{f: f}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var magic [len(walMagic)]byte
		if n, _ := f.ReadAt(magic[:], 0); n != len(magic) || string(magic[:]) != walMagic {
			h.legacy = true
		}
	}
	if c.d.fsync {
		// Make the directory entries durable so the log cannot vanish
		// while its contents survive.
		_ = syncDir(dir)
		_ = syncDir(filepath.Join(c.d.dir, "sessions"))
	}
	c.wals[id] = h
	return h, nil
}

// seq returns the next sequence number for id, recovering the current
// one from disk the first time a session is touched after open.
func (c *committer) seq(id string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seqLocked(id)
}

func (c *committer) seqLocked(id string) uint64 {
	if last, ok := c.lastSeq[id]; ok {
		c.lastSeq[id] = last + 1
		return last + 1
	}
	last := uint64(0)
	if sv, err := c.loadSession(id); err == nil {
		if sv.Snapshot != nil {
			last = sv.Snapshot.Seq
		}
		if n := len(sv.Events); n > 0 && sv.Events[n-1].Seq > last {
			last = sv.Events[n-1].Seq
		}
	}
	c.lastSeq[id] = last + 1
	return last + 1
}

// appendEvent encodes one event and appends it to the session's WAL.
// The hot path (a v2 log) is allocation-free in steady state: the
// payload and its CRC frame are assembled in a reused encState and
// land in a single write. A legacy v1 log keeps receiving JSON lines
// (one format per file) until a snapshot truncates it; an empty file
// always starts v2, magic prepended to the first frame's write so a
// torn first append leaves a cleanly-empty log.
func (c *committer) appendEvent(id string, ev Event) (*os.File, error) {
	c.mu.Lock()
	poisoned := c.broken[id]
	c.mu.Unlock()
	if poisoned {
		return nil, fmt.Errorf("store: wal of session %s is poisoned by a failed write; a snapshot must repair it", id)
	}
	h, err := c.wal(id)
	if err != nil {
		return nil, err
	}
	// Remember the pre-write size: a failed write may leave a torn
	// record MID-file, and recovery's "only the tail can be torn"
	// invariant would then silently drop every later (acked!) event.
	end, err := h.f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("store: sizing wal: %w", err)
	}
	ev.Seq = c.seq(id)
	es := c.getEnc()
	var record []byte
	if end > 0 && h.legacy {
		line, jerr := json.Marshal(ev)
		if jerr != nil {
			c.putEnc(es)
			c.unassign(id) // the sequence was never written
			return nil, fmt.Errorf("store: encoding event: %w", jerr)
		}
		record = append(line, '\n')
	} else {
		es.payload, err = appendEventPayload(es.payload[:0], ev)
		if err != nil {
			c.putEnc(es)
			c.unassign(id)
			return nil, err
		}
		es.frame = es.frame[:0]
		if end == 0 {
			// First record of a fresh (or freshly truncated) log: the
			// magic rides the same write, so the file can never hold
			// frames without their format marker.
			es.frame = append(es.frame, walMagic...)
			h.legacy = false
		}
		es.frame = codec.AppendFrame(es.frame, es.payload)
		record = es.frame
	}
	_, werr := h.f.Write(record)
	c.putEnc(es)
	if werr != nil {
		c.unassign(id)
		// Undo any partial append; if even that fails, poison the log
		// so no later event is acked into the shadow of a torn record.
		if terr := h.f.Truncate(end); terr != nil {
			c.poison(id)
		}
		return nil, fmt.Errorf("store: writing wal: %w", werr)
	}
	return h.f, nil
}

func (c *committer) snapshot(id string, snap Snapshot) error {
	dir := c.sessionDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating session dir: %w", err)
	}
	// Stamp the snapshot with the last sequence assigned so far: the
	// caller guarantees (by holding the session lock) that the state
	// being snapshotted reflects every one of those events.
	c.mu.Lock()
	if last, ok := c.lastSeq[id]; ok {
		snap.Seq = last
	} else {
		snap.Seq = c.seqLocked(id) - 1
		c.lastSeq[id] = snap.Seq
	}
	c.mu.Unlock()
	es := c.getEnc()
	defer c.putEnc(es)
	es.frame, es.payload = appendSnapshotFile(es.frame, es.payload, snap)
	tmp := filepath.Join(dir, snapBinFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	_, werr := f.Write(es.frame)
	if werr == nil && c.d.fsync {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapBinFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if c.d.fsync {
		// The rename must be durable before the WAL shrinks: a crash
		// in between leaves snapshot + stale log, which LoadAll
		// reconciles by sequence number.
		if err := syncDir(dir); err != nil {
			return fmt.Errorf("store: publishing snapshot: %w", err)
		}
	}
	// One-way upgrade: the durable v2 snapshot supersedes any v1 file.
	// Best-effort — if the remove fails, loadSession still prefers
	// snap.bin, so a lingering snap.json is shadowed, not read.
	_ = os.Remove(filepath.Join(dir, snapFile))
	// Truncate the WAL: everything up to snap.Seq is folded in. This
	// also repairs a log poisoned by an earlier failed append or a
	// LoadAll casualty — the unreadable bytes are gone with everything
	// else, and (legacy reset) the next append starts a fresh v2 log.
	h, err := c.wal(id)
	if err != nil {
		return err
	}
	if err := h.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	h.legacy = false
	c.mu.Lock()
	delete(c.broken, id)
	c.mu.Unlock()
	return nil
}

func (c *committer) compact(id string) error {
	c.mu.Lock()
	if h, ok := c.wals[id]; ok {
		h.f.Close()
		delete(c.wals, id)
	}
	delete(c.lastSeq, id)
	delete(c.broken, id)
	c.mu.Unlock()
	if err := os.RemoveAll(c.sessionDir(id)); err != nil {
		return fmt.Errorf("store: removing session: %w", err)
	}
	return nil
}

// loadAllWorkersCap bounds the restore worker pool — directory decode
// is a mix of IO and CPU (CRC + parse), so a few workers per core
// saturate both without a thundering herd of open files.
const loadAllWorkersCap = 16

// loadAll scans every session directory, decoding sessions across a
// worker pool (restore is the startup critical path; directories are
// independent). The sequence map and poison set are updated serially
// afterwards: a readable session seeds lastSeq, a casualty gets NO
// lastSeq entry — a fabricated sequence would let the server append
// fresh events against a directory whose durable state is unreadable
// — and is poisoned instead, refusing appends until a snapshot
// rebuilds it.
func (c *committer) loadAll() ([]Saved, error) {
	root := filepath.Join(c.d.dir, "sessions")
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("store: reading sessions dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() || validID(e.Name()) != nil {
			continue
		}
		ids = append(ids, e.Name())
	}
	type result struct {
		sv  Saved
		err error
	}
	results := make([]result, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(len(ids), runtime.GOMAXPROCS(0)*2, loadAllWorkersCap); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				results[i].sv, results[i].err = c.loadSession(ids[i])
			}
		}()
	}
	wg.Wait()
	out := make([]Saved, 0, len(ids))
	var errs []error
	for i, id := range ids {
		if err := results[i].err; err != nil {
			// Report the casualty but keep scanning; its bare entry
			// still carries the id so the caller can avoid reusing it.
			errs = append(errs, fmt.Errorf("store: session %s: %w", id, err))
			out = append(out, Saved{ID: id})
			c.mu.Lock()
			delete(c.lastSeq, id)
			c.mu.Unlock()
			c.poison(id)
			continue
		}
		sv := results[i].sv
		last := uint64(0)
		if sv.Snapshot != nil {
			last = sv.Snapshot.Seq
		}
		if n := len(sv.Events); n > 0 {
			last = sv.Events[n-1].Seq
		}
		c.mu.Lock()
		c.lastSeq[id] = last
		c.mu.Unlock()
		out = append(out, sv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, errors.Join(errs...)
}

// loadSession reads one session directory: snapshot (if present) plus
// the WAL events newer than it. The v2 snapshot (snap.bin) shadows a
// v1 snap.json; the WAL's format is sniffed from its magic. Safe for
// concurrent use — it only reads the filesystem.
func (c *committer) loadSession(id string) (Saved, error) {
	dir := c.sessionDir(id)
	sv := Saved{ID: id}
	data, err := os.ReadFile(filepath.Join(dir, snapBinFile))
	switch {
	case err == nil:
		snap, derr := decodeSnapshotFile(data)
		if derr != nil {
			return sv, fmt.Errorf("decoding snapshot: %w", derr)
		}
		sv.Snapshot = snap
	case errors.Is(err, os.ErrNotExist):
		// No v2 snapshot: fall back to the v1 JSON file.
		data, err = os.ReadFile(filepath.Join(dir, snapFile))
		switch {
		case err == nil:
			var snap Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				return sv, fmt.Errorf("decoding snapshot: %w", err)
			}
			sv.Snapshot = &snap
		case errors.Is(err, os.ErrNotExist):
			// WAL-only session: events replay onto nothing; the server
			// reports it unrecoverable. Normal operation never produces
			// this (the initial snapshot is written at create).
		default:
			return sv, fmt.Errorf("reading snapshot: %w", err)
		}
	default:
		return sv, fmt.Errorf("reading snapshot: %w", err)
	}
	events, err := readWAL(filepath.Join(dir, walFile))
	if err != nil {
		return sv, err
	}
	minSeq := uint64(0)
	if sv.Snapshot != nil {
		minSeq = sv.Snapshot.Seq
	}
	for _, ev := range events {
		if ev.Seq > minSeq {
			sv.Events = append(sv.Events, ev)
		}
	}
	return sv, nil
}

// readWAL decodes the log, sniffing its format from the magic bytes:
// a file opening with the v2 magic is a CRC-framed binary stream
// (decodeWALV2 and its torn-tail rules), anything else is a v1 JSON
// event-per-line log. A torn final record ends either format cleanly:
// only the tail can be torn (the log is append-only, with failed
// writes truncated away), so everything before it is intact.
func readWAL(path string) ([]Event, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("sizing wal: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	magic, err := br.Peek(len(walMagic))
	if err != nil {
		// Fewer bytes than a magic: no complete record in either
		// format — a torn first write. Nothing to recover.
		return nil, nil
	}
	if string(magic) == walMagic {
		br.Discard(len(walMagic))
		events, _, err := decodeWALV2(br, st.Size()-int64(len(walMagic)), nil)
		if err != nil {
			return events, fmt.Errorf("reading wal: %w", err)
		}
		return events, nil
	}
	return readWALV1(br)
}

// readWALV1 decodes the legacy log as a stream of JSON events. A torn
// final record (a syntax error or unexpected EOF) ends the log. A
// streaming decoder rather than a line scanner, so a single large
// append batch — one event can carry an entire ingestion body — has
// no size ceiling to fall over at recovery.
func readWALV1(br *bufio.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(br)
	for {
		var ev Event
		err := dec.Decode(&ev)
		switch {
		case err == nil:
			out = append(out, ev)
		case errors.Is(err, io.EOF):
			return out, nil
		case errors.Is(err, io.ErrUnexpectedEOF), isSyntaxError(err):
			return out, nil // torn tail: recover what precedes it
		default:
			// Valid JSON of the wrong shape, or an IO failure mid-file:
			// not a torn tail — surface it rather than silently losing
			// acknowledged events that follow.
			return out, fmt.Errorf("reading wal: %w", err)
		}
	}
}

func isSyntaxError(err error) bool {
	var syn *json.SyntaxError
	return errors.As(err, &syn)
}

func (c *committer) closeAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.wals {
		h.f.Close()
	}
}

// syncDir fsyncs a directory so renames and file creations in it are
// durable.
func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
