package train

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/opt"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// This file implements executed communication–computation overlap: the
// flat gradient buffer the model's Grad slices are windows of is split
// into wire buckets, the unit-granular
// backward (mae.BackwardStepLayers) reports each unit's gradients the
// moment they are final, and the rank launches the covering buckets'
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

// backwardFrontiers walks w's unit table (perfmodel.Workload.Units, in
// flat order) top down: entry 0 is the table's parameter total, and
// entry k+1 is unit L−1−k's flat start — the frontier below which
// gradients are still open after mae.BackwardStepLayers' event k.
func backwardFrontiers(w perfmodel.Workload) []int {
	units, f := w.Units(), []int{int(w.TotalParams())}
	for i := len(units) - 1; i >= 0; i-- {
		f = append(f, f[len(f)-1]-int(units[i].Params))
	}
	return f
}

// layBuckets tiles the padded flat space into gradient buckets of
// bucketElems and takes the rank's piece of each as its owned spans.
// The run's backward frontiers must walk the model's whole flat space.
func (s *rankState) layBuckets(bucketElems int) error {
	if total := s.run.frontier[0]; total != s.dim {
		return fmt.Errorf("train: the unit table holds %d parameters, the model %d", total, s.dim)
	}
	idx := s.shardGroup.RankOf(s.r)
	for _, sp := range makeBuckets(len(s.flatG), bucketElems) {
		cl := sp.Len() / s.shardGroup.Size()
		piece := opt.Span{Lo: sp.Lo + idx*cl, Hi: sp.Lo + (idx+1)*cl}
		s.buckets = append(s.buckets, gradBucket{span: sp, piece: piece})
		// Merging adjacent pieces makes an unsharded rank's ownership
		// the single span [0, padded).
		if k := len(s.own) - 1; k >= 0 && s.own[k].Hi == piece.Lo {
			s.own[k].Hi = piece.Hi
		} else {
			s.own = append(s.own, piece)
		}
	}
	return nil
}

// beginStep arms the rank for one optimizer step's backward pass.
// gScale (multiplied into each bucket as it launches) folds the
// 1/(world·accum) gradient averaging and, under bf16, the loss scale;
// it is exactly 1 when there is nothing to fold.
func (s *rankState) beginStep(gScale float32) {
	s.gScale = gScale
	s.next = len(s.buckets) - 1
}

// onUnit is the mae.BackwardStepLayers callback: event k's unit has
// final gradients, so every bucket lying entirely above the new
// frontier launches now.
func (s *rankState) onUnit(k int) {
	f := s.run.frontier[k+1]
	for s.next >= 0 && s.buckets[s.next].span.Lo >= f {
		s.launch(s.buckets[s.next])
		s.next--
	}
}

// wireOf is the bf16 wire scratch behind a flat span; nil (the fp32
// wire) when the run is not mixed-precision.
func (s *rankState) wireOf(sp opt.Span) []uint16 {
	if s.wire == nil {
		return nil
	}
	return s.wire[sp.Lo:sp.Hi]
}

// launch scales one bucket of the accumulated gradient in place and
// issues its collective(s): a shard-group reduce-scatter and/or a
// replica-group all-reduce of the owned piece chained behind it. With
// Overlap off the handle is waited immediately (the synchronous
// schedule); either way completion order and arithmetic are identical.
// Under Overlap a queue worker reduces the bucket while backward keeps
// accumulating into flatG below the frontier — disjoint ranges, by
// onUnit's "entirely above the frontier" rule.
func (s *rankState) launch(b gradBucket) {
	sp := b.span
	// The scale stops at dim: the pad tail must stay exactly zero, and an
	// overflowing loss scale (+Inf) would turn it into 0·Inf = NaN that
	// no ZeroGrads ever clears.
	g := s.flatG[min(sp.Lo, s.dim):min(sp.Hi, s.dim)]
	tensor.Scale(g, g, s.gScale)
	var h *dist.Handle
	if s.shardGroup.Size() > 1 {
		h = s.shardGroup.Do(s.r, dist.Collective{Op: dist.OpReduceScatter, Buf: s.flatG[sp.Lo:sp.Hi], Wire: s.wireOf(sp)})
	}
	if s.replGroup.Size() > 1 || h == nil { // a one-rank world still issues its (empty) all-reduce
		h = s.replGroup.Do(s.r, dist.Collective{Op: dist.OpAllReduce,
			Buf: s.flatG[b.piece.Lo:b.piece.Hi], Wire: s.wireOf(b.piece), After: h})
	}
	if !s.run.cfg.Overlap {
		t0 := time.Now()
		h.Wait()
		s.exposed += time.Since(t0)
	}
	s.handles = append(s.handles, h)
}

// finishBackward flushes and waits every in-flight bucket — the
// barrier before overflow detection, clipping and the optimizer. The
// frontier reaching 0 guarantees flushing is a no-op; it is kept as a
// safety net for a unit-table contract violation.
func (s *rankState) finishBackward() {
	for s.next >= 0 {
		s.launch(s.buckets[s.next])
		s.next--
	}
	s.wait()
}

// gather issues bucket k's parameter all-gather over the shard group:
// the other members' chunks of the bucket land in flatW, and on the
// bf16 wire the rank's own chunk goes out as the image its wire slots
// already hold (see rankState.image). It is not waited here.
func (s *rankState) gather(k int) {
	sp := s.buckets[k].span
	s.handles = append(s.handles, s.shardGroup.Do(s.r, dist.Collective{Op: dist.OpAllGather,
		Buf: s.flatW[sp.Lo:sp.Hi], Wire: s.wireOf(sp)}))
}

// wait blocks until every collective issued in the current phase has
// completed. Only this blocking is exposed communication: issuing is
// not timed, so a phase's collectives overlap each other and whatever
// the rank computes between issue and wait.
func (s *rankState) wait() {
	t0 := time.Now()
	for _, h := range s.handles {
		h.Wait()
	}
	s.exposed += time.Since(t0)
	s.handles = s.handles[:0]
}

// allGatherParams re-assembles the flat parameters — the FULL_SHARD
// backward re-gather — issuing every bucket's gather before waiting on
// any. (The post-optimizer gather issues bucket by bucket behind AdamW;
// see rankState.step.)
func (s *rankState) allGatherParams() {
	for k := range s.buckets {
		s.gather(k)
	}
	s.wait()
}
