// Package dist executes real multi-rank data-parallel training inside
// one process: a World of N goroutine "ranks" connected in a ring, with
// working collectives on []float32 — ring all-reduce, reduce-scatter
// and all-gather and a pipelined ring broadcast, all issued through one
// call (Group.Do) — plus a Barrier and a float64 scalar all-reduce for
// control values (loss averaging, global gradient norms).
//
// Where internal/comm *models* the cost of a collective and
// internal/fsdp *simulates* a training step's schedule, this package
// *runs* the collectives: the same ring algorithms RCCL executes on
// Frontier, implemented over per-edge Go channels. Every buffer element
// a rank puts on the "wire" (sends to its ring successor) is counted,
// and every call is simultaneously priced by the α–β model of
// internal/comm for the same byte count and world size — so measured
// and modeled communication live side by side in one Stats report, and
// tests can hold the simulator's accounting to what an execution
// actually moved.
//
// # Ranks and synchronization
//
// World.Run spawns one goroutine per rank and executes the same
// function on each (the SPMD convention). Collective calls are
// synchronization points: every rank of the world must call the same
// collectives in the same order with the same buffer lengths, exactly
// like an MPI or NCCL program. The collectives are zero-copy — ranks
// exchange read-only views of their buffers around the ring, and a
// per-step acknowledgement handshake guarantees a sender never rewrites
// a chunk a neighbour is still reading — so a collective moves no bytes
// beyond what the ring algorithm itself requires.
//
// # Accounting
//
// For a vector of V bytes over n ranks the ring algorithms put on each
// rank's outgoing link exactly the textbook volumes that internal/comm
// prices:
//
//	reduce-scatter / all-gather:  (n−1)/n · V
//	all-reduce:                   2(n−1)/n · V
//	broadcast:                    V   (ranks 0..n−2 each forward V)
//
// The three chunked ops require len(Buf) to be a multiple of the group
// size so chunks are uniform and the measured volume matches the model
// exactly; callers pad (see opt.PadTo). On the bf16 wire (Collective.Wire)
// V counts 2 bytes per element, measured and modeled alike. A bf16
// all-gather publishes the caller's chunk of Wire as it lies — the bf16
// image the caller already holds — and fills only the other members'
// chunks, so it rounds nothing; reductions round each chunk they send.
//
// # One call
//
// g.Do(r, Collective{Op, Buf, Wire, Root, After}) issues a data
// collective and returns a *Handle; the wire format, the broadcast root
// and cross-queue ordering are attributes of the call, and a
// synchronous collective is g.Do(r, c).Wait(). The contract:
//
//   - FIFO per (rank, group): every call is enqueued on the issuing
//     rank's queue for that group and executed in issue order by the
//     queue's worker goroutine — the executed analog of a GPU comm
//     stream, which the overlapped training path uses to hide gradient
//     reductions behind backward compute. Every member must issue the
//     same operations in the same order; queues of different groups run
//     independently.
//   - Buf and Wire belong to the collective until Wait returns.
//   - After orders a call behind a handle from another group's queue.
//   - Arguments are validated at issue, on the calling goroutine.
//
// The rings are deterministic, so results and byte accounting are
// bit-for-bit the same whenever the handles are waited; see async.go.
// Options.Throttle additionally realizes each collective's α–β modeled
// time as executed delay, making hidden versus exposed communication
// measurable in wall-clock.
//
// # Subgroups
//
// World.Subgroup carves a Group — a communicator over a subset of the
// ranks with its own ring edges, barrier and scalar table — so
// collectives on disjoint groups run concurrently. This is the
// two-level communicator structure of HYBRID_SHARD: FULL_SHARD
// collectives inside each k-rank shard group, a gradient-shard
// all-reduce across each world/k replica group. Group traffic composes
// with the World's Stats: bytes are counted against the sending world
// rank, and model accounting keeps world rank 0's view of the SPMD
// schedule (in a symmetric schedule every rank sends the same volume,
// so rank 0's calls are the world's calls).
//
// # Failure injection
//
// Options.Fault (a FaultPlan) kills a chosen rank as it enters a
// chosen collective, and Options.ThrottleSkew slows a chosen rank's
// collectives by a per-rank factor (straggler mode) — the fault model
// behind the elastic shrink-and-resume training path; see fault.go
// for the counting rules and the abort protocol the injection drives.
package dist

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/hw"
)

// Options configures a World.
type Options struct {
	// Link is the α–β link model used to price each collective call
	// (measured vs modeled in Stats). A zero Link defaults to
	// DefaultLink(n).
	Link comm.Params
	// Throttle > 0 turns the modeled collective cost into a real
	// in-process delay: every rank sleeps Throttle × the α–β predicted
	// time of each collective it completes (1 = real time on the
	// configured Link, larger = a proportionally more congested link).
	// In-process channel hops are far faster than a GPU fabric, so
	// without throttling every collective is effectively free and
	// communication–computation overlap has nothing to hide; with it
	// the executed step times expose the same overlap economics the
	// fsdp simulator prices, measurably (see the overlap benchmarks in
	// internal/train).
	Throttle float64
	// ThrottleSkew scales Throttle per world rank (straggler mode): a
	// rank listed here sleeps skew × Throttle × modeled time after each
	// collective instead of 1 × Throttle. Because the collectives are
	// lockstep, one skewed rank delays every peer at the next
	// synchronization point — the executed analog of one slow GPU
	// (thermal throttling, a degraded link) holding back a whole job,
	// which the straggler tests hold to the α–β lockstep prediction.
	// Ranks not present (or with non-positive skew) run at plain
	// Throttle. Ignored when Throttle is 0.
	ThrottleSkew map[int]float64
	// Fault schedules one deterministic rank death for fault-tolerance
	// testing; the zero value injects nothing. See FaultPlan.
	Fault FaultPlan
}

// DefaultLink returns the modeled link for an n-rank group co-located
// on one Frontier node (the layout an in-process world most resembles):
// Infinity Fabric bandwidth and intra-node hop latency from hw.Frontier.
func DefaultLink(n int) comm.Params { return hw.Frontier().Link(n, n) }

// Op identifies a collective kind in Stats.
type Op int

// Collective kinds.
const (
	OpAllReduce Op = iota
	OpReduceScatter
	OpAllGather
	OpBroadcast
	OpScalar // float64 control-plane reductions (loss, grad norms)
	numOps
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpAllReduce:
		return "all-reduce"
	case OpReduceScatter:
		return "reduce-scatter"
	case OpAllGather:
		return "all-gather"
	case OpBroadcast:
		return "broadcast"
	case OpScalar:
		return "scalar"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// OpStats aggregates one collective kind over a World's lifetime.
type OpStats struct {
	// Calls is how many times the collective ran.
	Calls int
	// MeasuredWireBytes is the per-rank outgoing traffic actually sent
	// around the ring (maximum over ranks; symmetric collectives send
	// the same from every rank).
	MeasuredWireBytes float64
	// ModelWireBytes is what the α–β model (internal/comm) accounts for
	// the same calls.
	ModelWireBytes float64
	// ModelTime is the α–β predicted total duration (seconds) on the
	// configured link.
	ModelTime float64
}

// Stats is the per-op accounting of a World.
type Stats struct {
	World         int
	AllReduce     OpStats
	ReduceScatter OpStats
	AllGather     OpStats
	Broadcast     OpStats
	Scalar        OpStats
}

// ByOp returns the stats entry for op.
func (s Stats) ByOp(o Op) OpStats {
	switch o {
	case OpAllReduce:
		return s.AllReduce
	case OpReduceScatter:
		return s.ReduceScatter
	case OpAllGather:
		return s.AllGather
	case OpBroadcast:
		return s.Broadcast
	default:
		return s.Scalar
	}
}

// World is a set of in-process ranks joined by ring channels.
type World struct {
	n        int
	link     comm.Params
	throttle float64
	skew     map[int]float64
	fault    FaultPlan

	ranks []*Rank

	// root is the world-wide Group (all ranks): what Subgroup of the
	// identity sequence returns and Rank's control-plane methods use.
	root *Group

	// subgroup registry: memoized by rank sequence so every member's
	// Subgroup call resolves to the same communicator.
	subMu  sync.Mutex
	subs   map[string]*Group
	groups []*Group // root + subgroups, for abort propagation

	// abort is closed when a rank dies mid-run so peers parked in a
	// collective unblock (with ErrAborted) instead of deadlocking.
	abort     chan struct{}
	abortOnce sync.Once

	// model accounting, written by rank 0 only (collectives order all
	// ranks, so rank 0's view is the world's view).
	calls     [numOps]int
	modelB    [numOps]float64
	modelT    [numOps]float64
	statsOnce sync.Mutex // guards Stats() against torn reads mid-run
}

// New creates an n-rank world. n must be ≥ 1.
func New(n int, opts Options) *World {
	if n < 1 {
		panic(fmt.Sprintf("dist: world size %d", n))
	}
	link := opts.Link
	if link.Bandwidth <= 0 {
		link = DefaultLink(n)
	}
	if opts.Fault.Armed() && (opts.Fault.Rank < 0 || opts.Fault.Rank >= n) {
		panic(fmt.Sprintf("dist: fault plan targets rank %d outside world %d", opts.Fault.Rank, n))
	}
	var skew map[int]float64
	if len(opts.ThrottleSkew) > 0 {
		skew = make(map[int]float64, len(opts.ThrottleSkew))
		for id, s := range opts.ThrottleSkew {
			if id < 0 || id >= n {
				panic(fmt.Sprintf("dist: throttle skew targets rank %d outside world %d", id, n))
			}
			skew[id] = s
		}
	}
	w := &World{
		n:        n,
		link:     link,
		throttle: opts.Throttle,
		skew:     skew,
		fault:    opts.Fault,
		subs:     make(map[string]*Group),
		abort:    make(chan struct{}),
	}
	all := make([]int, n)
	for i := 0; i < n; i++ {
		all[i] = i
		w.ranks = append(w.ranks, &Rank{w: w, id: i})
	}
	w.root = newGroup(w, all, link)
	w.groups = append(w.groups, w.root)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// ErrAborted is the error a rank observes when a peer died (panicked
// or returned an error) while it was parked in a collective. The
// originating rank's own error is what Run returns.
var ErrAborted = errors.New("dist: world aborted by a peer rank's failure")

// Run executes fn once per rank, each on its own goroutine, and waits
// for all of them. fn must keep the sequence of collective calls
// aligned across ranks. A rank that panics or returns an error aborts
// the world: peers parked in a collective unblock with ErrAborted
// (re-raised as a panic inside the collective and recovered here), and
// Run returns the originating rank's error. A World that aborted must
// not be reused.
func (w *World) Run(fn func(r *Rank) error) error {
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	wg.Add(w.n)
	for i := 0; i < w.n; i++ {
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if err, ok := p.(error); ok && errors.Is(err, ErrAborted) {
						errs[r.id] = ErrAborted
					} else if err, ok := p.(error); ok {
						// %w keeps the chain intact so callers can match
						// sentinels (ErrInjectedFault) through Run's error.
						errs[r.id] = fmt.Errorf("dist: rank %d panicked: %w", r.id, err)
					} else {
						errs[r.id] = fmt.Errorf("dist: rank %d panicked: %v", r.id, p)
					}
					w.doAbort()
				} else if errs[r.id] != nil {
					w.doAbort()
				}
			}()
			// Issue queues live for one Run: whatever fn leaves queued
			// is abandoned when the rank exits.
			defer r.closeQueues()
			errs[r.id] = fn(r)
		}(w.ranks[i])
	}
	wg.Wait()
	// Prefer the originating failure over the secondary ErrAborted ones.
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			aborted = err
			continue
		}
		return err
	}
	return aborted
}

// doAbort poisons the world: blocked collectives and barriers — in the
// world group and every subgroup — unblock with ErrAborted.
func (w *World) doAbort() {
	w.abortOnce.Do(func() {
		close(w.abort)
		w.subMu.Lock()
		gs := append([]*Group(nil), w.groups...)
		w.subMu.Unlock()
		for _, g := range gs {
			g.bar.doAbort()
		}
	})
}

// Stats returns the accumulated measured-vs-modeled accounting. Call it
// after Run returns (or between Runs); per-rank byte counters are
// folded in at read time.
//
// Subgroup collectives compose into the same report: measured bytes
// accrue to whichever world rank sent them (the per-op maximum is
// reported), while calls and model costs are recorded from world rank
// 0's perspective — the one collective schedule every rank of a
// symmetric SPMD program executes. A schedule that runs collectives
// only on groups excluding rank 0 is therefore visible in the measured
// counters but not in the call/model columns.
func (w *World) Stats() Stats {
	w.statsOnce.Lock()
	defer w.statsOnce.Unlock()
	s := Stats{World: w.n}
	fill := func(o Op) OpStats {
		var maxSent float64
		for _, r := range w.ranks {
			if b := float64(r.sentBytes[o].Load()); b > maxSent {
				maxSent = b
			}
		}
		return OpStats{
			Calls:             w.calls[o],
			MeasuredWireBytes: maxSent,
			ModelWireBytes:    w.modelB[o],
			ModelTime:         w.modelT[o],
		}
	}
	s.AllReduce = fill(OpAllReduce)
	s.ReduceScatter = fill(OpReduceScatter)
	s.AllGather = fill(OpAllGather)
	s.Broadcast = fill(OpBroadcast)
	s.Scalar = fill(OpScalar)
	return s
}

// record is called by rank 0 on collective exit to accumulate the
// modeled cost of one call.
func (w *World) record(o Op, c comm.Cost) {
	w.statsOnce.Lock()
	w.calls[o]++
	w.modelB[o] += c.WireBytes
	w.modelT[o] += c.Time
	w.statsOnce.Unlock()
}

// barrier is a reusable sense-reversing barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     uint64
	aborted bool
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond = sync.NewCond(&b.mu)
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic(ErrAborted)
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
		if b.aborted {
			panic(ErrAborted)
		}
	}
}

func (b *barrier) doAbort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
