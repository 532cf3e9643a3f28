package dist

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// One call issues every data collective: Group.Do takes a Collective
// descriptor, enqueues it on the issuing rank's FIFO queue for that
// group and returns a Handle — the executed analog of launching a
// collective on a communication stream and synchronizing on its
// completion event. The ring machinery runs on a per-(rank, group)
// worker goroutine; the rank keeps computing until it Waits. This is
// how the overlapped training path (train.PretrainDistributed with
// Overlap) hides gradient reductions behind the remaining backward
// compute, exactly as FSDP overlaps per-unit reduce-scatters on
// Frontier; a synchronous collective is the same call waited at once.
//
// # Protocol
//
//	h := grp.Do(rank, dist.Collective{Op: dist.OpReduceScatter, Buf: bucket})
//	... keep computing on other buffers ...
//	shard := h.Wait()
//
// Rules, mirroring a CUDA/RCCL stream:
//
//   - Issue order is execution order. Operations issued by one rank on
//     one group run strictly FIFO; every member of the group must issue
//     the same operations in the same order (the usual SPMD collective
//     contract, per queue). Queues of different groups — and
//     scalar/barrier traffic, which uses a separate slot table — run
//     independently.
//   - Buf and Wire are owned by the collective until Wait returns.
//     Reading or writing them earlier is a data race.
//   - After orders an operation behind a handle from a *different*
//     group's queue — how HYBRID_SHARD chains each gradient bucket's
//     replica-group all-reduce behind its shard-group reduce-scatter
//     without serializing the two queues.
//   - Arguments are validated at issue, on the calling goroutine: a
//     malformed Collective panics there and enqueues nothing.
//
// Determinism: the ring fixes the accumulation order and bf16 rounding
// is a pure function, so for a given group size every member computes
// bit-identical results, whenever the handles are waited.
//
// A rank that returns from World.Run with operations still queued —
// a protocol violation, since Wait-ing every handle implies an empty
// queue — abandons them: the worker fails their handles with
// ErrAborted instead of executing a collective on behalf of an exited
// rank (an operation already mid-ring cannot be stopped). A peer
// rank failing while an operation is parked in the ring unblocks it
// with ErrAborted, re-raised by Wait; an operation whose After
// dependency failed fails the same way.

// Collective describes one data collective over a group's ring.
type Collective struct {
	// Op is OpAllReduce, OpReduceScatter, OpAllGather or OpBroadcast.
	Op Op
	// Buf is the fp32 payload, reduced or filled in place. For the three
	// chunked ops its length must be a multiple of the group size
	// (callers pad; see opt.PadTo): member i owns chunk i — the shard a
	// reduce-scatter leaves fully reduced (the other chunks end as
	// partial sums, garbage to the caller) and, on the fp32 wire, the
	// contribution an all-gather publishes. An all-gather fills only the
	// other members' chunks. A broadcast takes any length.
	Buf []float32
	// Wire selects the wire format. nil moves float32 views of Buf
	// (4 bytes per element). A uint16 scratch with len(Wire) ==
	// len(Buf) moves bf16 payloads — exactly half the bytes, measured
	// and modeled — while the reduction accumulates in fp32: how RCCL
	// moves bf16 gradients on Frontier. A reduction forwards the
	// round-nearest-even image of the sender's fp32 partial sum; an
	// all-reduce also rounds its reduced chunk into Wire and widens it
	// back into Buf, so every member ends with the same bits. An
	// all-gather rounds nothing: the caller's chunk of Wire is its
	// contribution, already holding the bf16 bits (the training step
	// has AdamW write them there) and published as it lies; the other
	// members' chunks are widened into Buf, and the caller's own chunk
	// of Buf is neither read nor written. The rest of Wire is scratch.
	// Not available for broadcast.
	Wire []uint16
	// Root is the group-local rank whose Buf an OpBroadcast copies to
	// every member.
	Root int
	// After, when non-nil, is a handle from another group's queue that
	// must complete before this operation starts.
	After *Handle
}

// Handle is one issued collective.
type Handle struct {
	done  chan struct{}
	shard []float32 // result view (reduce-scatter), nil otherwise
	err   error
}

// Wait blocks until the collective completes and returns its result
// view: the caller's fully reduced shard (chunk RankOf(r) of Buf) for a
// reduce-scatter, nil otherwise. If the world aborted (a peer rank
// died) Wait re-raises ErrAborted, which World.Run recovers like any
// collective abort.
func (h *Handle) Wait() []float32 {
	<-h.done
	if h.err != nil {
		panic(h.err)
	}
	return h.shard
}

// Do issues c on g's ring on behalf of member r and returns its handle;
// g.Do(r, c).Wait() is the synchronous form. See the protocol above.
func (g *Group) Do(r *Rank, c Collective) *Handle {
	m := g.on(r)
	switch {
	case c.Op == OpBroadcast:
		if c.Root < 0 || c.Root >= g.n {
			panic(fmt.Sprintf("dist: broadcast root %d outside group of %d", c.Root, g.n))
		}
		if c.Wire != nil {
			panic("dist: broadcast has no bf16 wire")
		}
	case c.Op != OpAllReduce && c.Op != OpReduceScatter && c.Op != OpAllGather:
		panic(fmt.Sprintf("dist: %v is not a data collective", c.Op))
	case len(c.Buf)%g.n != 0:
		panic(fmt.Sprintf("dist: %v buffer length %d not divisible by group size %d (pad the buffer)",
			c.Op, len(c.Buf), g.n))
	case c.Wire != nil && len(c.Wire) != len(c.Buf):
		panic(fmt.Sprintf("dist: %v bf16 wire scratch length %d, want %d", c.Op, len(c.Wire), len(c.Buf)))
	}
	m.enter(c.Op)
	h := &Handle{done: make(chan struct{})}
	r.queue(g).ops <- queuedOp{h: h, m: m, c: c}
	return h
}

// queuedOp is one issued collective waiting for its turn on the ring.
type queuedOp struct {
	h *Handle
	m member
	c Collective
}

// opQueue is the issue queue of one (rank, group) pair plus its worker
// goroutine — the rank's private lane into the group's comm "stream".
type opQueue struct {
	ops chan queuedOp
	// closing is set before the queue closes so the worker abandons
	// still-queued operations (failing their handles with ErrAborted)
	// instead of executing them against a rank that already exited.
	closing atomic.Bool
}

// queueDepth bounds how many collectives a rank can have issued but not
// yet executed; beyond it the issuing rank blocks (backpressure like a
// full hardware launch queue).
const queueDepth = 64

// queue resolves (and lazily starts) the rank's worker for g. Called
// from the rank's own goroutine only.
func (r *Rank) queue(g *Group) *opQueue {
	if r.queues == nil {
		r.queues = make(map[*Group]*opQueue)
	}
	q, ok := r.queues[g]
	if !ok {
		q = &opQueue{ops: make(chan queuedOp, queueDepth)}
		r.queues[g] = q
		go q.loop(r.w)
	}
	return q
}

// closeQueues shuts down the rank's workers when its Run function
// returns; a fresh Run lazily restarts them. In a correct program the
// queues are empty here — every issued operation was Waited, so it
// completed before the rank returned; anything still queued is a
// protocol violation and is abandoned rather than executed.
func (r *Rank) closeQueues() {
	for _, q := range r.queues {
		q.closing.Store(true)
		close(q.ops)
	}
	r.queues = nil
}

func (q *opQueue) loop(w *World) {
	for op := range q.ops {
		q.exec(w, op)
	}
}

// abandoned reports whether the op must not run: the world died, or
// the issuing rank exited with the op still queued.
func (q *opQueue) abandoned(w *World) bool {
	if q.closing.Load() {
		return true
	}
	select {
	case <-w.abort:
		return true
	default:
		return false
	}
}

// exec runs one queued collective, converting panics (ErrAborted from
// a dying peer, or a genuine bug) into the handle's error so Wait can
// re-raise them on the issuing rank's goroutine.
func (q *opQueue) exec(w *World, op queuedOp) {
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok && errors.Is(err, ErrAborted) {
				op.h.err = ErrAborted
			} else if err, ok := p.(error); ok {
				// %w keeps the chain intact so Wait re-raises an error
				// callers can still match sentinels against.
				op.h.err = fmt.Errorf("dist: collective panicked: %w", err)
				w.doAbort()
			} else {
				op.h.err = fmt.Errorf("dist: collective panicked: %v", p)
				w.doAbort()
			}
		}
		close(op.h.done)
	}()
	if dep := op.c.After; dep != nil {
		select {
		case <-dep.done:
			if dep.err != nil {
				panic(ErrAborted)
			}
		case <-w.abort:
			panic(ErrAborted)
		}
	}
	if q.abandoned(w) {
		panic(ErrAborted)
	}
	op.h.shard = op.m.run(op.c)
}
