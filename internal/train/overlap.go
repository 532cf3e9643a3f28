package train

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// This file implements executed communication–computation overlap: the
// flat gradient buffer the model's Grad slices are windows of is split
// into wire buckets, the layer-granular
// backward (mae.BackwardStepLayers) reports each unit's gradients the
// moment they are final, and the engine launches the covering buckets'
// collectives on internal/dist's issue queues while the
// remaining layers keep computing — FSDP's per-unit overlapped
// reduce-scatter, executed. With Overlap off the identical operations
// run at the identical points but are waited immediately, so the two
// schedules are bit-for-bit the same trajectory and move exactly the
// same bytes; only wall-clock (and its compute/exposed-comm
// decomposition) differs.

// gradBucket is one wire bucket of the padded flat gradient.
type gradBucket struct {
	span  opt.Span // flat range [Lo, Hi), a multiple of the world size long
	piece opt.Span // this rank's owned chunk of the bucket (all of it when nothing is sharded)
}

// makeBuckets tiles [0, padded) with spans of bucketElems (the last
// may be shorter; all lengths stay multiples of the alignment since
// both padded and bucketElems are).
func makeBuckets(padded, bucketElems int) []opt.Span {
	var spans []opt.Span
	for off := 0; off < padded; off += bucketElems {
		end := off + bucketElems
		if end > padded {
			end = padded
		}
		spans = append(spans, opt.Span{Lo: off, Hi: end})
	}
	return spans
}

// bucketElemsFor resolves the gradient bucket size in flat elements,
// rounded to a multiple of the world size so every bucket ring-chunks
// uniformly at both communicator levels. Precedence: an explicit
// DistConfig.BucketBytes covers every strategy; otherwise DDP keeps
// its plan-level bucket size (wire bytes, so bf16 buckets hold twice
// the elements) and the sharded strategies default to one whole-buffer
// bucket — the pre-overlap schedule.
func bucketElemsFor(bucketBytes int, ddpBucketBytes float64, isDDP bool, wireBytes, n, padded int) int {
	elems := padded
	switch {
	case bucketBytes > 0:
		elems = bucketBytes / wireBytes / n * n
	case isDDP && n > 1:
		elems = int(ddpBucketBytes) / wireBytes / n * n
	}
	if elems < n {
		elems = n
	}
	return elems
}

// phaseTimer decomposes rank 0's step wall-clock: time spent blocked
// inside per-step collectives (or waiting on their handles) is exposed
// communication; the rest of the loop is compute (+ input pipeline).
// Ranks other than 0 carry a nil timer.
type phaseTimer struct {
	exposed time.Duration
}

func (t *phaseTimer) comm(f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.exposed += time.Since(t0)
}

// syncEngine drives one rank's per-step gradient synchronization:
// bucket launches during backward, the wait barrier before
// clipping/optimizer, and the parameter all-gathers after it.
type syncEngine struct {
	r       *dist.Rank
	overlap bool

	// A gradient bucket is reduce-scattered over the shard group, then
	// its owned piece all-reduced over the replica group; a one-member
	// group has nothing to do, which is the whole difference between
	// the strategies (replicated: replica group only; ZeRO-1/FULL_SHARD:
	// shard group only; HYBRID: both).
	shardGroup *dist.Group
	replGroup  *dist.Group

	buckets []gradBucket
	own     []opt.Span // owned pieces, ascending, adjacent ones merged

	flatW []float32 // the rank's padded flat weights, all-gathered in place
	flatG []float32 // the rank's padded flat gradient, reduced in place
	dim   int       // their unpadded length: [dim, len(flatG)) is the zero pad tail
	wire  []uint16  // bf16 wire scratch (nil under fp32)

	segStart []int // flat frontier after each backward segment

	// timer is rank 0's exposed-communication stopwatch (nil on other
	// ranks); wired at construction so even collectives issued before
	// the first beginStep — the resharded schedule's first backward
	// re-gather — are accounted.
	timer *phaseTimer

	// per-step state
	gScale float32
	next   int
	// handles are the collectives in flight in the current phase — a
	// step's gradient reductions, or a parameter gather — drained by
	// wait.
	handles []*dist.Handle
}

// newSyncEngine builds the bucket layout and validates the model's
// backward-segment contract against the flat packing order.
func newSyncEngine(r *dist.Rank, model *mae.Model, params []*nn.Param, overlap bool,
	shardGroup, replGroup *dist.Group,
	flatW, flatG []float32, wire []uint16, timer *phaseTimer, bucketElems int) (*syncEngine, error) {

	e := &syncEngine{
		r: r, overlap: overlap, shardGroup: shardGroup, replGroup: replGroup,
		flatW: flatW, flatG: flatG, dim: nn.CountParams(params), wire: wire, timer: timer,
	}
	idx := shardGroup.RankOf(r)
	for _, sp := range makeBuckets(len(flatG), bucketElems) {
		cl := sp.Len() / shardGroup.Size()
		piece := opt.Span{Lo: sp.Lo + idx*cl, Hi: sp.Lo + (idx+1)*cl}
		e.buckets = append(e.buckets, gradBucket{span: sp, piece: piece})
		// Merging adjacent pieces makes an unsharded rank's ownership
		// the single span [0, padded).
		if k := len(e.own) - 1; k >= 0 && e.own[k].Hi == piece.Lo {
			e.own[k].Hi = piece.Hi
		} else {
			e.own = append(e.own, piece)
		}
	}

	// Map backward segments onto the flat space: completion events walk
	// the frontier down from dim to 0, so each segment must sit
	// immediately below its predecessor.
	offs := make(map[*nn.Param]int, len(params))
	off := 0
	for _, p := range params {
		offs[p] = off
		off += p.NumEl()
	}
	cursor := e.dim
	for k, seg := range model.BackwardSegments() {
		lo, total := cursor, 0
		for _, p := range seg {
			po, ok := offs[p]
			if !ok {
				return nil, fmt.Errorf("train: backward segment %d holds an unknown parameter %q", k, p.Name)
			}
			if po < lo {
				lo = po
			}
			total += p.NumEl()
		}
		if lo+total != cursor {
			return nil, fmt.Errorf("train: backward segment %d covers [%d, %d), not contiguous below frontier %d",
				k, lo, lo+total, cursor)
		}
		e.segStart = append(e.segStart, lo)
		cursor = lo
	}
	if cursor != 0 {
		return nil, fmt.Errorf("train: backward segments leave [0, %d) uncovered", cursor)
	}
	return e, nil
}

// beginStep arms the engine for one optimizer step's backward pass.
// gScale (multiplied into each bucket as it launches) folds the
// 1/(world·accum) gradient averaging and, under bf16, the loss scale;
// it is exactly 1 when there is nothing to fold.
func (e *syncEngine) beginStep(gScale float32) {
	e.gScale = gScale
	e.next = len(e.buckets) - 1
}

// onSegment is the mae.BackwardStepLayers callback: segment k's
// gradients are final, so every bucket lying entirely above the new
// frontier launches now.
func (e *syncEngine) onSegment(k int) {
	f := e.segStart[k]
	for e.next >= 0 && e.buckets[e.next].span.Lo >= f {
		e.launch(e.buckets[e.next])
		e.next--
	}
}

// wireOf is the bf16 wire scratch behind a flat span; nil (the fp32
// wire) when the run is not mixed-precision.
func (e *syncEngine) wireOf(sp opt.Span) []uint16 {
	if e.wire == nil {
		return nil
	}
	return e.wire[sp.Lo:sp.Hi]
}

// launch scales one bucket of the accumulated gradient in place and
// issues its collective(s): a shard-group reduce-scatter and/or a
// replica-group all-reduce of the owned piece chained behind it. With
// Overlap off the handle is waited immediately (the synchronous
// schedule); either way completion order and arithmetic are identical.
// Under Overlap a queue worker reduces the bucket while backward keeps
// accumulating into flatG below the frontier — disjoint ranges, by
// onSegment's "entirely above the frontier" rule.
func (e *syncEngine) launch(b gradBucket) {
	sp := b.span
	// The scale stops at dim: the pad tail must stay exactly zero, and an
	// overflowing loss scale (+Inf) would turn it into 0·Inf = NaN that
	// no ZeroGrads ever clears.
	g := e.flatG[min(sp.Lo, e.dim):min(sp.Hi, e.dim)]
	tensor.Scale(g, g, e.gScale)
	var h *dist.Handle
	if e.shardGroup.Size() > 1 {
		h = e.shardGroup.Do(e.r, dist.Collective{Op: dist.OpReduceScatter, Buf: e.flatG[sp.Lo:sp.Hi], Wire: e.wireOf(sp)})
	}
	if e.replGroup.Size() > 1 || h == nil { // a one-rank world still issues its (empty) all-reduce
		h = e.replGroup.Do(e.r, dist.Collective{Op: dist.OpAllReduce,
			Buf: e.flatG[b.piece.Lo:b.piece.Hi], Wire: e.wireOf(b.piece), After: h})
	}
	if !e.overlap {
		e.timer.comm(func() { h.Wait() })
	}
	e.handles = append(e.handles, h)
}

// finishBackward flushes and waits every in-flight bucket — the
// barrier before overflow detection, clipping and the optimizer. The
// frontier reaching 0 guarantees flushing is a no-op; it is kept as a
// safety net for a segment contract violation.
func (e *syncEngine) finishBackward() {
	for e.next >= 0 {
		e.launch(e.buckets[e.next])
		e.next--
	}
	e.wait()
}

// gather issues bucket k's parameter all-gather over the shard group:
// the other members' chunks of the bucket land in flatW, and on the
// bf16 wire the rank's own chunk goes out as the image its wire slots
// already hold (see rankState.image). It is not waited here.
func (e *syncEngine) gather(k int) {
	sp := e.buckets[k].span
	e.handles = append(e.handles, e.shardGroup.Do(e.r, dist.Collective{Op: dist.OpAllGather,
		Buf: e.flatW[sp.Lo:sp.Hi], Wire: e.wireOf(sp)}))
}

// wait blocks until every collective issued in the current phase has
// completed. Only this blocking is exposed communication: issuing is
// not timed, so a phase's collectives overlap each other and whatever
// the rank computes between issue and wait.
func (e *syncEngine) wait() {
	e.timer.comm(func() {
		for _, h := range e.handles {
			h.Wait()
		}
	})
	e.handles = e.handles[:0]
}

// allGatherParams re-assembles the flat parameters — the FULL_SHARD
// backward re-gather — issuing every bucket's gather before waiting on
// any. (The post-optimizer gather issues bucket by bucket behind AdamW;
// see rankState.step.)
func (e *syncEngine) allGatherParams() {
	for k := range e.buckets {
		e.gather(k)
	}
	e.wait()
}
