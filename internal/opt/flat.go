package opt

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file provides the flat view of a parameter set that the
// distributed training path (internal/train.PretrainDistributed over
// internal/dist) shards collectives and optimizer state on. In training
// the flat buffers are the parameters' home (nn.FlattenParams makes
// every tensor a window of one padded []float32, in parameter order) and
// nothing is copied; what lives here is the arithmetic of that space —
// its length (FlatDim), the padding that lets it divide evenly across
// ranks (PadTo), span lists for bucket-granular ownership — and
// ShardedAdamW, the Adam moments for just the spans one rank owns: the
// ZeRO-1/ZeRO-3 partitioning of optimizer state, of which "replicated"
// is the one-span case. Training calls none of the Pack*/Unpack*
// copies; they serve the one place a flat vector meets a model that
// keeps its own tensors (train.TrainState.LoadInto, behind which
// serving and probing load a checkpoint), tests, and bench/'s
// opt.pack_unpack_ms probe, which pins their signatures.

// FlatDim returns the total element count across params — the length
// of the flat parameter space before padding.
func FlatDim(params []*nn.Param) int { return nn.CountParams(params) }

// PadTo rounds n up to the next multiple of world, the length a flat
// buffer must have for uniform ring collectives (internal/dist requires
// collective buffers divisible by the group size). Padding to the whole
// world covers both communicator levels of HYBRID_SHARD: a bucket chunks
// evenly over the shard group and each chunk over the replica group. Pad
// elements carry zero gradients and never decay, so they stay zero
// through training.
func PadTo(n, world int) int {
	if world <= 1 {
		return n
	}
	return (n + world - 1) / world * world
}

// Span is one contiguous flat range [Lo, Hi). Bucket-granular
// gradient synchronization (train.PretrainDistributed with gradient
// buckets) shards each bucket independently, so a rank's ownership is
// a list of spans — chunk i of every bucket — rather than one
// contiguous range; the helpers below and ShardedAdamW operate on such
// lists. A single-span list reproduces the contiguous layout exactly.
type Span struct{ Lo, Hi int }

// Len returns the span's element count.
func (s Span) Len() int { return s.Hi - s.Lo }

// SpansLen sums the element counts of spans.
func SpansLen(spans []Span) int {
	n := 0
	for _, s := range spans {
		n += s.Len()
	}
	return n
}

func checkSpans(spans []Span, limit int) {
	prev := 0
	for _, s := range spans {
		if s.Lo < prev || s.Hi < s.Lo || s.Hi > limit {
			panic(fmt.Sprintf("opt: spans %v not ascending and disjoint within [0, %d)", spans, limit))
		}
		prev = s.Hi
	}
}

// ScrubOutsideSpans zeroes buf everywhere outside the given spans
// (ascending, disjoint) — the executed analog of FSDP freeing non-owned
// parameter shards when a unit is resharded after forward: the
// subsequent backward all-gather must genuinely restore the dropped
// values, so a test of the trained trajectory is a test of the
// collective.
func ScrubOutsideSpans(buf []float32, spans []Span) {
	checkSpans(spans, len(buf))
	at := 0
	for _, s := range spans {
		clear(buf[at:s.Lo])
		at = s.Hi
	}
	clear(buf[at:])
}

// GatherSpans copies the spans of src, in order, into the contiguous
// dst (len(dst) must equal SpansLen) — how a rank assembles its
// shard-local gradient/weight buffer from the per-bucket chunks it
// owns in the flat space.
func GatherSpans(dst, src []float32, spans []Span) {
	checkSpans(spans, len(src))
	at := 0
	for _, s := range spans {
		at += copy(dst[at:], src[s.Lo:s.Hi])
	}
	if at != len(dst) {
		panic(fmt.Sprintf("opt: gathered %d elements into a buffer of %d", at, len(dst)))
	}
}

// PackGrads copies every parameter's gradient into dst in parameter
// order. len(dst) must be at least FlatDim; elements beyond the packed
// region are left untouched (a padded tail stays zero if it started
// zero, which keeps ring reductions over the pad exact).
func PackGrads(dst []float32, params []*nn.Param) {
	packTensors(dst, params, func(p *nn.Param) []float32 { return p.Grad.Data })
}

// UnpackGrads copies the packed flat gradient back into every
// parameter's gradient tensor.
func UnpackGrads(params []*nn.Param, src []float32) {
	unpackTensors(src, params, func(p *nn.Param) []float32 { return p.Grad.Data })
}

// PackValues copies every parameter's value into dst in parameter
// order.
func PackValues(dst []float32, params []*nn.Param) {
	packTensors(dst, params, func(p *nn.Param) []float32 { return p.Value.Data })
}

// UnpackValues copies the packed flat values back into every
// parameter's value tensor.
func UnpackValues(params []*nn.Param, src []float32) {
	unpackTensors(src, params, func(p *nn.Param) []float32 { return p.Value.Data })
}

func packTensors(dst []float32, params []*nn.Param, field func(*nn.Param) []float32) {
	off := 0
	for _, p := range params {
		d := field(p)
		if off+len(d) > len(dst) {
			panic(fmt.Sprintf("opt: flat buffer length %d < FlatDim %d", len(dst), FlatDim(params)))
		}
		copy(dst[off:], d)
		off += len(d)
	}
}

func unpackTensors(src []float32, params []*nn.Param, field func(*nn.Param) []float32) {
	off := 0
	for _, p := range params {
		d := field(p)
		if off+len(d) > len(src) {
			panic(fmt.Sprintf("opt: flat buffer length %d < FlatDim %d", len(src), FlatDim(params)))
		}
		copy(d, src[off:off+len(d)])
		off += len(d)
	}
}

// ShardedAdamW is AdamW restricted to the spans of the flat parameter
// space one rank owns — the ZeRO-1 optimizer: each rank holds the first
// and second Adam moments only for its own spans, updates only those
// slices of the flat weights, and the ranks' updated shards are
// re-assembled with an all-gather. A rank of an unsharded strategy owns
// the single span [0, padded) and needs no gather. The update
// arithmetic is identical, element for element, to AdamW.Step,
// including the per-parameter NoWeightDecay exclusions (captured at
// construction as the runs of the owned spans that do and do not
// decay) and the shared step count for bias correction.
//
// A training step walks the shard twice. Pass 1 is the caller's one
// read of the reduced gradient (tensor.SumSq: overflow verdict, unscale
// and Σg² together); pass 2 is StepScaled, the tensor.AdamW kernel with
// the clip factor folded into its read of the gradient and the bf16
// working copy and its wire image written beside the fp32 master.
type ShardedAdamW struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	// Lo and Hi bound the shard in flat coordinates (for bucket-
	// granular ownership they bound the union of the spans). Hi may
	// extend past FlatDim into padding; pad elements never decay and
	// carry zero gradients, so they stay zero.
	Lo, Hi int

	// runs tiles the owned spans in ascending order; the moment buffers
	// are their concatenation (shard-local coordinates, n long).
	runs []decayRun
	n    int
	// spanLast[i] is the index of the run holding owned span i's last
	// element (an empty span takes the run before it, -1 if none): once
	// that run is updated, so is the whole span.
	spanLast []int

	m, v []float32
	t    int
}

// decayRun is a stretch of one owned span with a uniform weight-decay
// rule: flat range [lo, lo+n), at shard-local offset off.
type decayRun struct {
	lo, off, n int
	decay      bool
}

// NewShardedAdamW constructs the shard optimizer for flat range
// [lo, hi) over params, with the same hyper-parameters as NewAdamW
// (β₁=0.9, β₂=0.95, ε=1e-8).
func NewShardedAdamW(params []*nn.Param, weightDecay float64, lo, hi int) *ShardedAdamW {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("opt: sharded adamw range [%d, %d)", lo, hi))
	}
	return NewShardedAdamWSpans(params, weightDecay, []Span{{lo, hi}})
}

// NewShardedAdamWSpans constructs the shard optimizer for the given
// owned flat spans (ascending, disjoint) — the bucket-granular
// ownership of the overlapped executor, where a rank holds chunk i of
// every gradient bucket. Moments live in shard-local coordinates: the
// concatenation of the spans in order, exactly the layout GatherSpans
// produces.
func NewShardedAdamWSpans(params []*nn.Param, weightDecay float64, spans []Span) *ShardedAdamW {
	if len(spans) == 0 {
		panic("opt: sharded adamw with no spans")
	}
	a := &ShardedAdamW{
		Beta1: adamwBeta1, Beta2: adamwBeta2, Eps: adamwEps,
		WeightDecay: weightDecay,
		Lo:          spans[0].Lo, Hi: spans[len(spans)-1].Hi,
	}
	checkSpans(spans, a.Hi)
	// Cut every span at the parameter boundaries inside it (the pad
	// tail past the last parameter is one more piece), merging
	// neighbours that share a decay rule.
	for _, sp := range spans {
		at := sp.Lo
		add := func(hi int, decay bool) {
			if hi = min(hi, sp.Hi); hi <= at {
				return
			}
			if k := len(a.runs) - 1; k >= 0 && a.runs[k].lo+a.runs[k].n == at && a.runs[k].decay == decay {
				a.runs[k].n += hi - at
			} else {
				a.runs = append(a.runs, decayRun{lo: at, off: a.n, n: hi - at, decay: decay})
			}
			a.n += hi - at
			at = hi
		}
		end := 0 // flat end of the parameter being walked
		for _, p := range params {
			end += p.NumEl()
			add(end, !p.NoWeightDecay)
		}
		add(sp.Hi, false)
		a.spanLast = append(a.spanLast, len(a.runs)-1)
	}
	a.m = make([]float32, a.n)
	a.v = make([]float32, a.n)
	return a
}

// StepCount returns how many updates have been applied.
func (a *ShardedAdamW) StepCount() int { return a.t }

// SetStep overrides the step counter (resuming from a checkpoint).
func (a *ShardedAdamW) SetStep(t int) { a.t = t }

// clipped returns the run's flat range of a checkpoint tensor, cut off
// at the tensor's length: checkpoint tensors are FlatDim long, so the
// zero-valued pad tail never leaves or enters them.
func (r decayRun) clipped(flat []float32) []float32 {
	return flat[min(r.lo, len(flat)):min(r.lo+r.n, len(flat))]
}

// CopyMoments writes the Adam moments of the owned spans into the same
// spans of the flat checkpoint tensors dstM and dstV, clipped at their
// length.
func (a *ShardedAdamW) CopyMoments(dstM, dstV []float32) {
	for _, r := range a.runs {
		copy(r.clipped(dstM), a.m[r.off:])
		copy(r.clipped(dstV), a.v[r.off:])
	}
}

// RestoreMoments is CopyMoments' inverse: it loads the owned spans of
// the flat checkpoint tensors srcM and srcV, clipped at their length
// (the pad tail of freshly allocated moments stays zero).
func (a *ShardedAdamW) RestoreMoments(srcM, srcV []float32) {
	for _, r := range a.runs {
		copy(a.m[r.off:r.off+r.n], r.clipped(srcM))
		copy(a.v[r.off:r.off+r.n], r.clipped(srcV))
	}
}

// Step applies one AdamW update to the owned spans. w and g — the
// weights and the (already averaged) gradient — are each either
// shard-local (exactly SpansLen long: the owned spans' concatenation,
// the layout GatherSpans produces) or a whole flat buffer (at least Hi
// long) whose owned spans are read and updated in place; for a single
// span starting at 0 the two coincide.
func (a *ShardedAdamW) Step(lr float64, w, g []float32) {
	a.StepScaled(lr, w, g, 1, nil, nil, nil)
}

// StepScaled is Step with what a training step otherwise spends extra
// walks of the shard on, done inside the kernel's one pass: every
// gradient is multiplied by gScale as it is read (the clip factor; g
// itself is left as it was); rounded, when non-nil, receives the bf16
// rounding of every updated weight (the mixed-precision working copy)
// and image, when non-nil, its bf16 bits (what the parameter
// all-gather puts on the wire) — each in either layout like w and g.
// spanDone, when non-nil, is called with the index of each owned span
// (in construction order) as soon as every output over it is written,
// so a caller can ship span i while the kernel moves on to span i+1.
func (a *ShardedAdamW) StepScaled(lr float64, w, g []float32, gScale float32, rounded []float32, image []uint16, spanDone func(span int)) {
	if !fits(a, w) || !fits(a, g) || rounded != nil && !fits(a, rounded) || image != nil && !fits(a, image) {
		panic(fmt.Sprintf("opt: sharded adamw got %d weights / %d grads / %d rounded / %d image for a shard of %d ending at %d",
			len(w), len(g), len(rounded), len(image), a.n, a.Hi))
	}
	a.t++
	k := tensor.NewAdamWScalars(lr, a.Beta1, a.Beta2, a.Eps, a.t)
	k.GScale = gScale
	next := 0 // first span not yet reported to spanDone
	report := func(lastRun int) {
		for ; spanDone != nil && next < len(a.spanLast) && a.spanLast[next] <= lastRun; next++ {
			spanDone(next)
		}
	}
	report(-1)
	for ri, r := range a.runs {
		k.Decay = 0
		if r.decay {
			k.Decay = float32(lr * a.WeightDecay)
		}
		tensor.AdamW(window(a, w, r), window(a, rounded, r), window(a, image, r), window(a, g, r),
			a.m[r.off:r.off+r.n], a.v[r.off:r.off+r.n], &k)
		report(ri)
	}
}

// fits reports whether buf has one of the two layouts StepScaled takes:
// shard-local (exactly the owned length) or flat (reaching Hi).
func fits[T any](a *ShardedAdamW, buf []T) bool { return len(buf) == a.n || len(buf) >= a.Hi }

// window is run r's slice of buf in buf's layout; nil stays nil.
func window[T any](a *ShardedAdamW, buf []T, r decayRun) []T {
	switch {
	case buf == nil:
		return nil
	case len(buf) == a.n:
		return buf[r.off : r.off+r.n]
	}
	return buf[r.lo : r.lo+r.n]
}
