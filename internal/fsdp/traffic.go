package fsdp

// Traffic is the per-rank wire-byte accounting of one optimizer step's
// parameter/gradient synchronization — the quantities the discrete-
// event simulator charges to the communication stream, exposed in
// closed form so the real execution layer (internal/dist driven by
// internal/train.PretrainDistributed) is held to the same numbers:
// for every strategy of the Section III-C matrix (see Plan) tests
// assert the bytes each rank *actually sent* around its rings equal
// this prediction exactly, per step.
type Traffic struct {
	// AllReduceBytes is the gradient all-reduce volume (DDP-style
	// replicated strategies).
	AllReduceBytes float64
	// ReduceScatterBytes is the gradient reduce-scatter volume (sharded
	// strategies).
	ReduceScatterBytes float64
	// AllGatherBytes is the parameter all-gather volume (sharded
	// strategies re-assembling updated parameters, plus the forward /
	// backward re-gathers of FULL_SHARD).
	AllGatherBytes float64
}

// Total sums all per-step collective traffic.
func (t Traffic) Total() float64 {
	return t.AllReduceBytes + t.ReduceScatterBytes + t.AllGatherBytes
}

// TrafficPerStep returns the per-rank bytes one optimizer step puts on
// the wire for a model of paramElems parameters under plan p on a world
// of the given size, with each element travelling as elemBytes wire
// bytes — 4 for fp32, 2 for the bf16 mixed-precision mode (≤ 0 defaults
// to 4; the fp32 master weights, Adam state and the one-time init
// broadcast are not per-step traffic and not accounted). It is the
// schedule of Plan's table priced at the ring volumes of internal/comm
// over g = ShardRanks shard-group ranks and world/g replica-group ranks:
//
//	reduce-scatter, each all-gather:  (g−1)/g · V
//	replica all-reduce of one shard:  2(r−1)/r · V/g,   r = world/g
//
// where a one-member group moves nothing and V is the element count
// padded up to a multiple of the world — the alignment at which one
// flat buffer chunks uniformly on the shard ring and each shard on the
// replica ring, the same padding the executed collectives of
// internal/dist require, which is why measured and predicted bytes
// agree exactly rather than approximately.
func TrafficPerStep(p Plan, world, paramElems, elemBytes int) Traffic {
	if world <= 1 || paramElems <= 0 {
		return Traffic{}
	}
	if elemBytes <= 0 {
		elemBytes = 4
	}
	// A shard group the world cannot tile (non-positive, or larger than
	// the world — Validate rejects both) is accounted as one group
	// rather than dividing by zero.
	g := max(p.ShardRanks(world), 1)
	repl := max(world/g, 1)
	ringFrac := func(n int) float64 { return float64(n-1) / float64(n) }
	v := float64((paramElems+g*repl-1)/(g*repl)*(g*repl)) * float64(elemBytes)

	t := Traffic{
		AllReduceBytes:     2 * ringFrac(repl) * (v / float64(g)),
		ReduceScatterBytes: float64(ringFrac(g) * v),
		AllGatherBytes:     float64(ringFrac(g) * v),
	}
	if p.RegathersInBackward() {
		t.AllGatherBytes *= 2
	}
	return t
}
