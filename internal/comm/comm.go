// Package comm provides α–β cost models for the collective operations
// PyTorch FSDP issues — all-gather, reduce-scatter, all-reduce and
// broadcast — using ring algorithms (what RCCL runs on Frontier).
//
// For a ring over n ranks moving a tensor of V bytes at link bandwidth
// B with per-hop latency α and host launch cost λ:
//
//	all-gather / reduce-scatter:  λ + (n−1)·α + (n−1)/n · V / B
//	all-reduce:                   λ + 2(n−1)·α + 2(n−1)/n · V / B
//
// The bandwidth term is bottlenecked by the slowest link the ring
// crosses (hw.Machine.Link decides which tier applies).
package comm

import "fmt"

// Cost is the modeled cost of one collective call.
type Cost struct {
	// Time is the wall-clock duration in seconds.
	Time float64
	// WireBytes is the per-rank traffic the call puts on the
	// bottleneck link (for bandwidth accounting).
	WireBytes float64
}

// Params bundles the link characteristics for a collective.
type Params struct {
	Bandwidth float64 // bytes/s on the bottleneck link
	HopLat    float64 // seconds per ring hop
	Launch    float64 // fixed host-side cost per call
	// ChunkOverheadBytes models the per-chunk protocol overhead of ring
	// algorithms: a ring over n ranks moves the tensor in V/n chunks,
	// and chunks comparable to this size achieve only a fraction
	// chunk/(chunk+overhead) of link bandwidth. This is what makes
	// fixed 25 MiB DDP buckets increasingly inefficient as the world
	// grows — the paper's Section IV-C observation. Zero disables the
	// effect.
	ChunkOverheadBytes float64
}

func (p Params) validate() {
	if p.Bandwidth <= 0 {
		panic(fmt.Sprintf("comm: non-positive bandwidth %v", p.Bandwidth))
	}
	if p.HopLat < 0 || p.Launch < 0 {
		panic("comm: negative latency")
	}
}

// AllGather returns the cost of gathering a V-byte tensor across ranks
// (each rank contributes V/ranks and ends with all V bytes).
func AllGather(bytes float64, ranks int, p Params) Cost {
	return oneShotRing(bytes, ranks, p, 1)
}

// ReduceScatter returns the cost of reduce-scattering a V-byte tensor
// (each rank ends with its reduced V/ranks shard).
func ReduceScatter(bytes float64, ranks int, p Params) Cost {
	return oneShotRing(bytes, ranks, p, 1)
}

// AllReduce returns the cost of all-reducing a V-byte tensor
// (reduce-scatter followed by all-gather).
func AllReduce(bytes float64, ranks int, p Params) Cost {
	return oneShotRing(bytes, ranks, p, 2)
}

// Broadcast returns the cost of a pipelined ring broadcast of V bytes.
func Broadcast(bytes float64, ranks int, p Params) Cost {
	if ranks <= 1 {
		return Cost{Time: p.Launch}
	}
	p.validate()
	n := float64(ranks)
	t := p.Launch + float64((n-1)*p.HopLat) + bytes/p.Bandwidth
	return Cost{Time: t, WireBytes: bytes}
}

// oneShotRing computes `phases` ring passes over the tensor.
func oneShotRing(bytes float64, ranks int, p Params, phases float64) Cost {
	if ranks <= 1 {
		// Degenerate group: FSDP still launches the op.
		return Cost{Time: p.Launch}
	}
	if bytes < 0 {
		panic("comm: negative byte count")
	}
	p.validate()
	n := float64(ranks)
	bw := p.Bandwidth
	if p.ChunkOverheadBytes > 0 && bytes > 0 {
		chunk := bytes / n
		bw *= chunk / (chunk + p.ChunkOverheadBytes)
	}
	bwTerm := phases * (n - 1) / n * bytes / bw
	latTerm := float64(phases * (n - 1) * p.HopLat)
	return Cost{
		Time:      p.Launch + latTerm + bwTerm,
		WireBytes: phases * (n - 1) / n * bytes,
	}
}

// ParamsFromAlphaBeta inverts the ring cost formula for a measured
// α–β fit: given per-call time t(V) ≈ α + β·V over payload bytes V for
// a collective of the given phase count (1 for all-gather /
// reduce-scatter, 2 for all-reduce) on an n-rank ring, it returns the
// Params under which the model reproduces the fit exactly —
// Launch = α (the measured fixed cost absorbs per-hop latency) and
// Bandwidth = phases·(n−1)/n / β, so phases·(n−1)/n·V/Bandwidth = β·V.
// This is how a calibrated HardwareProfile (internal/calib) feeds
// measured collective characteristics back into the model that
// internal/dist and fsdp.Simulate price with, replacing the asserted
// hw.Frontier constants.
func ParamsFromAlphaBeta(alpha, beta float64, ranks int, phases float64) (Params, error) {
	if ranks < 2 {
		return Params{}, fmt.Errorf("comm: α–β fit needs a ring (ranks %d)", ranks)
	}
	if beta <= 0 || phases <= 0 {
		return Params{}, fmt.Errorf("comm: non-positive β %v or phases %v", beta, phases)
	}
	if alpha < 0 {
		// Noise can fit a slightly negative intercept; a launch cost
		// below zero is meaningless, so clamp.
		alpha = 0
	}
	n := float64(ranks)
	return Params{Bandwidth: phases * (n - 1) / n / beta, Launch: alpha}, nil
}
