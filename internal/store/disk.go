package store

import (
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

// The files of one session directory, both format v2 (upgrade.go
// names the v1 ones).
const (
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
// CRC-framed binary format v2, the only format it writes or serves
// (LoadAll upgrades a v1 JSON directory in place). All file IO funnels
// through a single committer goroutine, which gives strict ordering, a
// natural group commit for fsync batching, and file-handle state
// without locks.
type Disk struct {
	dir   string
	fsync bool

	// syncWAL makes one WAL durable and syncDir one directory's entries;
	// (*os.File).Sync and fsyncDir in production, swappable in tests to
	// exercise the failure paths.
	syncWAL func(*os.File) error
	syncDir func(string) error

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
// unopenable. Call LoadAll before any other method: it upgrades v1
// directories, and everything after it reads and writes v2 only.
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
		syncDir: fsyncDir,
		reqs:    make(chan *diskReq, 256),
		lock:    lock,
		done:    make(chan struct{}),
	}
	go d.run()
	return d, nil
}

// Name reports "disk".
func (*Disk) Name() string { return "disk" }

// Format reports the on-disk format ("v2"), the only one the store
// writes. LoadAll upgrades a v1 directory in place, fsynced whatever
// the Fsync option; going back to v1 takes an export and re-import.
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
// it is unreachable by construction (the log is append-only). A
// directory still holding a v1 file is first rewritten in format v2
// (upgradeV1), so LoadAll must run before any other call.
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
	c := &committer{d: d, wals: make(map[string]*os.File), lastSeq: make(map[string]uint64)}
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
	for id, f := range c.wals {
		if len(c.wals) <= limit {
			break
		}
		f.Close()
		delete(c.wals, id)
	}
}

type committer struct {
	d *Disk
	// mu guards the maps and the encode-buffer free list below; the
	// files themselves are touched only by their session's goroutine
	// within a batch.
	mu sync.Mutex
	// wals caches open WAL handles (O_APPEND), each touched only by its
	// session's commit goroutine within a batch.
	wals map[string]*os.File
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
// directory and file on first use.
func (c *committer) wal(id string) (*os.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.wals[id]; ok {
		return f, nil
	}
	dir := c.sessionDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating session dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal: %w", err)
	}
	if c.d.fsync {
		// Make the directory entries durable so the log cannot vanish
		// while its contents survive. A failure fails the caller, and
		// the uncached handle makes the next use retry the sync.
		for _, p := range []string{dir, filepath.Join(c.d.dir, "sessions")} {
			if err := c.d.syncDir(p); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: syncing wal directory: %w", err)
			}
		}
	}
	c.wals[id] = f
	return f, nil
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

// appendEvent encodes one event and appends it to the session's WAL,
// allocation-free in steady state: the payload and its CRC frame are
// assembled in a reused encState and land in a single write. An empty
// log gets the magic prepended to the first frame's write, so a torn
// first append leaves at most a prefix of the magic: an empty log.
func (c *committer) appendEvent(id string, ev Event) (*os.File, error) {
	c.mu.Lock()
	poisoned := c.broken[id]
	c.mu.Unlock()
	if poisoned {
		return nil, fmt.Errorf("store: wal of session %s is poisoned by a failed write; a snapshot must repair it", id)
	}
	f, err := c.wal(id)
	if err != nil {
		return nil, err
	}
	// Remember the pre-write size: a failed write may leave a torn
	// record MID-file, and recovery's "only the tail can be torn"
	// invariant would then silently drop every later (acked!) event.
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("store: sizing wal: %w", err)
	}
	ev.Seq = c.seq(id)
	es := c.getEnc()
	es.payload, err = AppendEventPayload(es.payload[:0], ev)
	if err != nil {
		c.putEnc(es)
		c.unassign(id) // the sequence was never written
		return nil, err
	}
	es.frame = es.frame[:0]
	if end == 0 {
		es.frame = append(es.frame, walMagic...)
	}
	es.frame = codec.AppendFrame(es.frame, es.payload)
	_, werr := f.Write(es.frame)
	c.putEnc(es)
	if werr != nil {
		c.unassign(id)
		// Undo any partial append; if even that fails, poison the log
		// so no later event is acked into the shadow of a torn record.
		if terr := f.Truncate(end); terr != nil {
			c.poison(id)
		}
		return nil, fmt.Errorf("store: writing wal: %w", werr)
	}
	return f, nil
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
	// With Fsync the rename is durable before the WAL shrinks: a crash
	// in between leaves snapshot + stale log, which LoadAll reconciles
	// by sequence number.
	if err := c.d.replaceFile(filepath.Join(dir, snapBinFile), es.frame, c.d.fsync); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	// Truncate the WAL: everything up to snap.Seq is folded in. This
	// also repairs a log poisoned by an earlier failed append or a
	// LoadAll casualty — the unreadable bytes are gone with everything
	// else, and the next append starts a fresh log.
	f, err := c.wal(id)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	c.mu.Lock()
	delete(c.broken, id)
	c.mu.Unlock()
	return nil
}

func (c *committer) compact(id string) error {
	c.mu.Lock()
	if f, ok := c.wals[id]; ok {
		f.Close()
		delete(c.wals, id)
	}
	delete(c.lastSeq, id)
	delete(c.broken, id)
	c.mu.Unlock()
	if err := os.RemoveAll(c.sessionDir(id)); err != nil {
		return fmt.Errorf("store: removing session: %w", err)
	}
	// With Fsync the removal is durable before the delete is
	// acknowledged: an unsynced sessions/ entry could bring the session
	// back after a power loss.
	if c.d.fsync {
		if err := c.d.syncDir(filepath.Join(c.d.dir, "sessions")); err != nil {
			return fmt.Errorf("store: syncing sessions directory: %w", err)
		}
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
				results[i].sv, results[i].err = c.loadOrUpgrade(ids[i])
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

// loadSession reads one v2 session directory: snapshot (if present)
// plus the WAL events newer than it. A v1 JSON-lines WAL reports
// errV1WAL: only LoadAll's upgrade reads format v1. Safe for
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
	case !errors.Is(err, os.ErrNotExist):
		return sv, fmt.Errorf("reading snapshot: %w", err)
	}
	// No snapshot is a WAL-only session, which the server reports
	// unrecoverable; create always writes one.
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

// readWAL reads a v2 log: the magic, then decodeWAL's frames. An
// absent or empty file, or one holding only a prefix of the magic (a
// torn first append), is an empty log; a file opening with anything
// else is v1 (errV1WAL).
func readWAL(path string) ([]Event, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading wal: %w", err)
	}
	if !walIsV2(data) {
		return nil, errV1WAL
	}
	events, err := decodeWAL(data[min(len(data), len(walMagic)):])
	if err != nil {
		return events, fmt.Errorf("reading wal: %w", err)
	}
	return events, nil
}

// walIsV2 reports whether a WAL's bytes open as format v2: with the
// magic, or with a prefix of it as the whole file.
func walIsV2(data []byte) bool {
	n := min(len(data), len(walMagic))
	return string(data[:n]) == walMagic[:n]
}

func (c *committer) closeAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.wals {
		f.Close()
	}
}

// removeStaleTemps removes the temporary files a crash inside
// replaceFile leaves in a session directory. Nothing reads them.
func removeStaleTemps(dir string) error {
	for _, name := range []string{snapBinFile + tmpSuffix, walFile + tmpSuffix} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("removing stale %s: %w", name, err)
		}
	}
	return nil
}

// tmpSuffix names replaceFile's temporary sibling of a file.
const tmpSuffix = ".tmp"

// replaceFile atomically replaces path with data: it writes a
// temporary sibling and renames it over path. With sync the temporary
// file is fsynced before the rename and the directory after it, so a
// crash leaves either the old file or the complete new one, durably.
func (d *Disk) replaceFile(path string, data []byte, sync bool) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return d.syncDir(filepath.Dir(path))
	}
	return nil
}

// fsyncDir fsyncs a directory so renames and file creations in it are
// durable.
func fsyncDir(path string) error {
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
