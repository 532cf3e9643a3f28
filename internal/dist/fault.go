package dist

import (
	"errors"
	"fmt"
)

// Failure injection: a FaultPlan on Options kills a chosen rank the
// moment it enters a chosen collective, driving the existing abort
// machinery (doAbort / ErrAborted) through exactly the path a real
// mid-training rank death takes — the victim dies, every peer parked
// in a collective on any group unblocks with ErrAborted, abandoned
// handles fail, and World.Run returns the victim's error.
//
// Entries are counted on the issuing rank's own goroutine — in Do,
// once the call has validated, and at the top of every scalar
// all-reduce — so the fault index is deterministic: the same program
// kills at the same point on every run, regardless of how the queue
// workers interleave or when handles are waited. Either wire format,
// world and subgroup collectives all count against the one per-rank
// sequence; barriers do not (they are not collectives in Stats
// either).
//
// The elastic driver (internal/train.PretrainElastic) detects an
// injected death via errors.Is(err, ErrInjectedFault) on the error
// World.Run returns; a production failure (a genuine panic) takes the
// identical abort path and differs only in the error it carries.

// ErrInjectedFault is the sentinel wrapped by every *InjectedFault:
// errors.Is(err, ErrInjectedFault) identifies a planned death through
// the World.Run error chain.
var ErrInjectedFault = errors.New("dist: injected rank fault")

// FaultPlan schedules one deterministic rank death for fault-tolerance
// testing. The zero value injects nothing.
type FaultPlan struct {
	// Rank is the world rank to kill.
	Rank int
	// Call is the 1-based index of the collective entry at which the
	// rank dies, counted across every collective the rank enters (any
	// group, either wire format). Call <= 0 disables the plan.
	Call int64
}

// Armed reports whether the plan will fire.
func (f FaultPlan) Armed() bool { return f.Call > 0 }

// InjectedFault is the error a planned death panics with; World.Run
// returns it wrapped in its rank-panicked error. It matches
// ErrInjectedFault under errors.Is.
type InjectedFault struct {
	// Rank is the world rank that died.
	Rank int
	// Call is the collective-entry index at which it died.
	Call int64
	// Op is the collective kind it was entering.
	Op Op
}

// Error describes the death site.
func (e *InjectedFault) Error() string {
	return fmt.Sprintf("dist: injected fault: rank %d died entering collective %d (%v)",
		e.Rank, e.Call, e.Op)
}

// Unwrap links the fault to the ErrInjectedFault sentinel.
func (e *InjectedFault) Unwrap() error { return ErrInjectedFault }

// enter counts one collective entry on the calling rank's own
// goroutine and fires the world's FaultPlan when this entry is the
// planned one. Returns the member unchanged so call sites chain:
// g.on(r).enter(OpScalar).allReduceScalar(v).
func (m member) enter(op Op) member {
	r := m.r
	r.collectives++
	if f := r.w.fault; f.Call > 0 && f.Rank == r.id && r.collectives == f.Call {
		panic(&InjectedFault{Rank: r.id, Call: f.Call, Op: op})
	}
	return m
}

// CollectiveCalls returns how many collectives this rank has entered
// since the World was created — the sequence a FaultPlan.Call indexes
// into. Read it after World.Run returns; the counter is owned by the
// rank's goroutine while running.
func (r *Rank) CollectiveCalls() int64 { return r.collectives }

// CollectiveCalls returns rank's entry count (see Rank.CollectiveCalls)
// — the probe for aiming a FaultPlan: run the workload once without a
// fault, read the count, and schedule Call at any fraction of it.
func (w *World) CollectiveCalls(rank int) int64 {
	if rank < 0 || rank >= len(w.ranks) {
		panic(fmt.Sprintf("dist: rank %d of %d", rank, len(w.ranks)))
	}
	return w.ranks[rank].collectives
}
