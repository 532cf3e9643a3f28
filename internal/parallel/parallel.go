// Package parallel provides the shared-memory parallel execution
// substrate used by the pure-Go training stack: a persistent worker
// pool, a deterministic parallel-for over index ranges, and grain-size
// control so small problems stay on one goroutine.
//
// The pool starts lazily on the first parallel call and keeps
// GOMAXPROCS long-lived workers parked on a job channel. Each For/Range
// invocation publishes one job descriptor; workers (and the submitting
// goroutine, which always participates) claim contiguous sub-ranges via
// an atomic cursor, so no goroutines are spawned per call and a small
// parallel loop runs with zero steady-state allocations. Job
// descriptors are recycled through a sync.Pool.
//
// The split is always the deterministic contiguous partition computed
// by Split — worker scheduling affects only which goroutine executes a
// sub-range, never the sub-range boundaries — so callers observe the
// same work decomposition on every run. Nested parallel calls are safe:
// an inner call's submitter helps execute its own job, which guarantees
// progress even when every pool worker is blocked in an outer job.
//
// All heavy numeric kernels in internal/tensor route through this
// package, which keeps goroutine fan-out bounded by GOMAXPROCS and
// amortizes goroutine start-up across an entire training run.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinGrain is the default smallest amount of work (loop iterations)
// worth shipping to another goroutine. Callers can override per call.
const MinGrain = 1024

// maxProcs returns the degree of parallelism to use.
func maxProcs() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// job describes one parallel-for invocation. Exactly one of rbody and
// fbody is non-nil. The n items are divided into p tasks via Split.
//
// Jobs are recycled through jobPool, so a worker may receive a jobRef
// whose descriptor has since been reused for a newer invocation. All
// claiming therefore goes through state, a single atomic word packing
// (generation << 32 | claim cursor): a claim is a CAS that both checks
// the generation from the ref and advances the cursor, so a stale ref
// can never claim — or even observe the mutable fields of — a later
// generation. The CAS observing the publishing Store also gives the
// claimer a happens-before edge to the plain field writes.
// (Generations wrap at 2^32; an ABA would need a worker to sleep across
// 4 billion dispatches of one descriptor while holding its ref.)
type job struct {
	rbody     func(lo, hi int)
	fbody     func(i int)
	n, p      int
	state     atomic.Uint64
	remaining atomic.Int64
	done      chan struct{}
}

// jobRef is the value sent to workers: the descriptor plus the
// generation and task count it was published with, so workers need not
// read any mutable job field before a successful gen-checked claim.
type jobRef struct {
	j   *job
	gen uint32
	p   uint32
}

var (
	poolOnce sync.Once
	jobs     chan jobRef
	jobPool  = sync.Pool{New: func() any {
		return &job{done: make(chan struct{}, 1)}
	}}
)

// startPool launches the persistent workers. The pool size is fixed at
// the GOMAXPROCS value observed on first use.
func startPool() {
	p := maxProcs()
	jobs = make(chan jobRef, 64*p)
	for w := 0; w < p; w++ {
		go func() {
			for ref := range jobs {
				runTasks(ref)
			}
		}()
	}
}

// runTasks claims and executes tasks of ref's generation until none
// remain unclaimed (or the descriptor has moved on to a new
// generation, in which case the ref is stale and there is nothing to
// do).
func runTasks(ref jobRef) {
	j := ref.j
	for {
		v := j.state.Load()
		if uint32(v>>32) != ref.gen || uint32(v) >= ref.p {
			return
		}
		if !j.state.CompareAndSwap(v, v+1) {
			continue
		}
		t := int(uint32(v))
		lo, hi := Split(j.n, j.p, t)
		if j.rbody != nil {
			j.rbody(lo, hi)
		} else {
			for i := lo; i < hi; i++ {
				j.fbody(i)
			}
		}
		if j.remaining.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// dispatch publishes a job with p tasks over [0, n), helps execute it,
// and waits for completion. Wake-up sends are non-blocking: if the job
// channel is full every worker is already busy, and the submitting
// goroutine (plus workers finishing earlier jobs) still drains the job.
func dispatch(n, p int, rbody func(lo, hi int), fbody func(i int)) {
	poolOnce.Do(startPool)
	j := jobPool.Get().(*job)
	gen := uint32(j.state.Load()>>32) + 1
	j.rbody, j.fbody, j.n, j.p = rbody, fbody, n, p
	j.remaining.Store(int64(p))
	j.state.Store(uint64(gen) << 32) // cursor 0: publishes the job
	ref := jobRef{j, gen, uint32(p)}
wake:
	for w := 0; w < p-1; w++ {
		select {
		case jobs <- ref:
		default:
			break wake // channel full: workers are saturated already
		}
	}
	runTasks(ref)
	<-j.done
	// All claimed tasks have finished (remaining hit 0), so no stale
	// reader can still dereference the closures; drop them for the GC.
	j.rbody, j.fbody = nil, nil
	jobPool.Put(j)
}

// For runs body(i) for every i in [0, n) using up to GOMAXPROCS
// goroutines from the persistent pool. The split is contiguous and
// deterministic: task w covers the half-open range [w*n/p, (w+1)*n/p).
// For small n the body runs inline on the calling goroutine.
func For(n int, body func(i int)) {
	ForGrain(n, MinGrain, body)
}

// ForGrain is For with an explicit grain size: if n < grain the loop
// runs serially; otherwise at most n/grain (capped at GOMAXPROCS)
// tasks are claimed by the pool.
func ForGrain(n, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	p := workersFor(n, grain)
	if p == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	dispatch(n, p, nil, body)
}

// Range runs body(lo, hi) on contiguous sub-ranges of [0, n) in
// parallel. This is the preferred form for numeric kernels since the
// body can iterate locally without per-index closure overhead.
func Range(n int, body func(lo, hi int)) {
	RangeGrain(n, MinGrain, body)
}

// RangeGrain is Range with an explicit grain size.
func RangeGrain(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := workersFor(n, grain)
	if p == 1 {
		body(0, n)
		return
	}
	dispatch(n, p, body, nil)
}

// Split returns the half-open range [lo, hi) assigned to worker w when
// n items are divided evenly across p workers. The first n%p workers
// receive one extra item, so the union of all ranges is exactly [0, n)
// and ranges never overlap.
func Split(n, p, w int) (lo, hi int) {
	q, r := n/p, n%p
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// workersFor picks the worker count for n items at the given grain.
func workersFor(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	p := maxProcs()
	if byWork := n / grain; byWork < p {
		p = byWork
	}
	if p < 1 {
		p = 1
	}
	return p
}
