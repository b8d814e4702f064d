package strategy

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// The scoring worker pool. Every parallel rescore used to spawn
// GOMAXPROCS goroutines, burn them on one candidate list, and throw
// them away — an allocation per worker per pick, and with many
// concurrent sessions an unbounded number of scoring goroutines
// fighting over the same cores. The pool replaces that with one
// process-wide set of persistent workers, sized to the machine (or to
// SetMaxWorkers), that every ranked instance borrows for the duration
// of one rescore. Sessions therefore share the scorer instead of
// oversubscribing it: with S sessions picking at once there are still
// at most maxScoreWorkers+S goroutines scoring, and the S callers are
// the request goroutines that exist anyway.
//
// Dispatch is strictly non-blocking: the caller offers its job to the
// pool, keeps whatever the pool does not take, and always scores
// alongside the helpers. A saturated pool degrades to sequential
// scoring on the caller — never to queueing latency in front of the
// lock-free chunk claim.

// scorePool is the process-wide pool. Workers start lazily and never
// exit; the set grows toward the current target when demand appears
// (and after a SetMaxWorkers raise) but never shrinks — idle workers
// cost one blocked goroutine each.
type scorePool struct {
	jobs    chan *scoreJob
	started atomic.Int64 // workers launched so far
	max     atomic.Int64 // configured cap; 0 = automatic (GOMAXPROCS-1)
	mu      sync.Mutex   // serializes worker launches
}

var pool = scorePool{jobs: make(chan *scoreJob, 256)}

// SetMaxWorkers caps the scoring pool at n helper workers. n <= 0
// restores the automatic policy, GOMAXPROCS-1 helpers (the caller of
// each rescore is the final worker). Lowering the cap below the number
// of workers already started takes effect for dispatch only — started
// workers are never torn down.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	pool.max.Store(int64(n))
}

// target returns how many helper workers dispatch may use right now.
func (p *scorePool) target() int {
	if m := int(p.max.Load()); m > 0 {
		return m
	}
	return runtime.GOMAXPROCS(0) - 1
}

// dispatch offers job to up to want helpers, starting workers as
// needed, and returns how many accepted. Each successful offer is
// pre-counted on job.wg; a failed offer (pool saturated) is returned
// to the caller, who simply keeps that share of the work.
func (p *scorePool) dispatch(job *scoreJob, want int) int {
	if t := p.target(); want > t {
		want = t
	}
	if want <= 0 {
		return 0
	}
	p.ensure(want)
	accepted := 0
	for i := 0; i < want; i++ {
		job.wg.Add(1)
		select {
		case p.jobs <- job:
			accepted++
		default:
			job.wg.Done()
			return accepted
		}
	}
	return accepted
}

// ensure grows the worker set toward n.
func (p *scorePool) ensure(n int) {
	if int(p.started.Load()) >= n {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for int(p.started.Load()) < n {
		go p.worker()
		p.started.Add(1)
	}
}

func (p *scorePool) worker() {
	for job := range p.jobs {
		job.run()
		job.wg.Done()
	}
}

// scoreJob is one rescore fanned out across the pool. Each ranked
// instance embeds a scoreJob and reuses it for every parallel rescore,
// so dispatching allocates nothing; the WaitGroup spans one rescore
// (the instance is serialized per session, so the generations cannot
// overlap).
type scoreJob struct {
	st      *core.State
	classes []int32
	score   func(*core.State, int) float64
	out     []float64    // score per class position, shared by workers
	next    atomic.Int64 // chunk claim cursor into classes
	wg      sync.WaitGroup
}

// run scores chunks of the candidate list until none remain. Scores
// land in a worker-local buffer first and are merged into the shared
// out slice per chunk: adjacent workers never interleave stores into
// the same cache lines while the (comparatively long) scoring
// computations run, which is what made the old write-by-class fan-out
// false-share.
func (j *scoreJob) run() {
	var local [scoreChunk]float64
	for {
		start := int(j.next.Add(scoreChunk)) - scoreChunk
		if start >= len(j.classes) {
			return
		}
		end := min(start+scoreChunk, len(j.classes))
		chunk := j.classes[start:end]
		for i, c := range chunk {
			local[i] = j.score(j.st, int(c))
		}
		for i, c := range chunk {
			j.out[c] = local[i]
		}
	}
}

// release drops the job's references to per-rescore state so a cached
// ranked instance does not pin a dead State between picks.
func (j *scoreJob) release() {
	j.st, j.classes, j.score, j.out = nil, nil, nil, nil
}
