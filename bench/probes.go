package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/calib"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// perCall calls f repeatedly for at least budget and returns the median
// seconds per call. Short calls are timed in groups of about 200 µs so
// the clock reads do not show.
func perCall(budget time.Duration, f func()) float64 {
	f() // grow scratch, fault pages
	t0 := time.Now()
	f()
	group := int(200*time.Microsecond/(time.Since(t0)+1)) + 1
	var samples []float64
	for start := time.Now(); time.Since(start) < budget || len(samples) < 3; {
		t0 = time.Now()
		for i := 0; i < group; i++ {
			f()
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(group))
	}
	return median(samples)
}

// perCollective times one collective per call across a fresh 2-rank
// world: every rank runs the same number of calls (the ranks must stay
// in step, so the count is fixed from a 3-call estimate, not from each
// rank's own clock), and rank 0's median is reported.
func perCollective(budget time.Duration, call func(r *dist.Rank)) (float64, error) {
	const ranks = 2
	timed := func(n int) ([]float64, error) {
		samples := make([]float64, n)
		err := dist.New(ranks, dist.Options{}).Run(func(r *dist.Rank) error {
			for i := 0; i < n; i++ {
				t0 := time.Now()
				call(r)
				if r.ID() == 0 {
					samples[i] = time.Since(t0).Seconds()
				}
			}
			return nil
		})
		return samples, err
	}
	est, err := timed(3)
	if err != nil {
		return 0, err
	}
	n := int(budget.Seconds()/median(est)) + 3
	samples, err := timed(n)
	return median(samples), err
}

// blockShape is the transformer block that dominates the workload's
// step: the decoder block over the full token grid when training
// (mae.Default's decoder is where most of the backward goes), the
// encoder block over the full grid when serving.
type blockShape struct {
	batch, tokens, width, heads, mlp int
}

func (w workload) blockShape() blockShape {
	enc := w.mae.Encoder
	ranks := w.ranks
	if ranks < 1 {
		ranks = 1
	}
	if w.serve != nil {
		return blockShape{w.serve.cfg.MaxBatch, enc.Tokens(), enc.Width, enc.Heads, enc.MLP}
	}
	return blockShape{w.batch / ranks, enc.Tokens(), w.mae.DecoderWidth, w.mae.DecoderHeads, 4 * w.mae.DecoderWidth}
}

func randn(n int, r *rng.RNG) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	return x
}

// probeLedger times stand-alone calls to one public function each, at
// the workload's own shapes, and reports time per call or the achieved
// GF/s or GB/s from computed FLOPs and bytes (computed from tensor
// sizes, not measured traffic).
func probeLedger(w workload, seed uint64, budget time.Duration, peakGFLOPS float64, r *spanRecorder, rec *runRecord) error {
	sp := r.begin("probes", -1, 0)
	defer r.end(sp)
	gen := rng.New(seed + 77)
	sh := w.blockShape()
	rows := sh.batch * sh.tokens
	d := sh.width / sh.heads

	rec.layer("tensor.gemm_peak_gflops", "GF/s", peakGFLOPS)
	rec.layer("tensor.stream_triad_gbps", "GB/s", calib.MeasureStream(w.streamElems, 3).TriadBW/1e9)

	{ // the block's MLP up-projection
		a, b, c := randn(rows*sh.width, gen), randn(sh.width*sh.mlp, gen), make([]float32, rows*sh.mlp)
		sec := perCall(budget, func() { tensor.MatMul(c, a, b, rows, sh.width, sh.mlp, false) })
		rec.layer("tensor.gemm_mlp_gflops", "GF/s", 2*float64(rows)*float64(sh.width)*float64(sh.mlp)/sec/1e9)
	}
	{ // one attention head, fused: 4·T²·d FLOPs forward, 10·T²·d backward
		t := sh.tokens
		q, k, v := randn(t*d, gen), randn(t*d, gen), randn(t*d, gen)
		o, do := make([]float32, t*d), randn(t*d, gen)
		dq, dk, dv := make([]float32, t*d), make([]float32, t*d), make([]float32, t*d)
		stats := make([]float32, 2*t)
		scale := float32(1 / math.Sqrt(float64(d)))
		flops := float64(t) * float64(t) * float64(d)
		sec := perCall(budget, func() { tensor.FlashAttnFwd(o, d, q, k, v, t, d, scale, stats) })
		rec.layer("tensor.flash_fwd_gflops", "GF/s", 4*flops/sec/1e9)
		sec = perCall(budget, func() { tensor.FlashAttnBwd(dq, dk, dv, d, do, o, d, q, k, v, t, d, scale, stats) })
		rec.layer("tensor.flash_bwd_gflops", "GF/s", 10*flops/sec/1e9)
	}
	{ // the block's layers through nn
		x, dy := randn(rows*sh.width, gen), randn(rows*sh.width, gen)
		attn := nn.NewMultiHeadAttention("probe.attn", sh.width, sh.heads, gen)
		rec.layer("nn.attn_fwd_ms", "ms", 1e3*perCall(budget, func() { attn.Forward(x, sh.batch, sh.tokens) }))
		rec.layer("nn.attn_bwd_ms", "ms", 1e3*perCall(budget, func() { attn.Backward(dy) }))
		mlp := nn.NewMLP("probe.mlp", sh.width, sh.mlp, gen)
		rec.layer("nn.mlp_fwd_ms", "ms", 1e3*perCall(budget, func() { mlp.Forward(x, rows) }))
		rec.layer("nn.mlp_bwd_ms", "ms", 1e3*perCall(budget, func() { mlp.Backward(dy) }))
		readWrite := 2 * 4 * float64(len(x))
		ln := nn.NewLayerNorm("probe.ln", sh.width)
		rec.layer("nn.layernorm_gbps", "GB/s", readWrite/perCall(budget, func() { ln.Forward(x, rows) })/1e9)
		h := randn(rows*sh.mlp, gen)
		gelu := nn.NewGELU()
		rec.layer("nn.gelu_gbps", "GB/s", 2*4*float64(len(h))/perCall(budget, func() { gelu.Forward(h, rows) })/1e9)
	}

	// The optimizer and the flat-buffer traffic, over the workload's
	// whole parameter set.
	model := serve.NewModel(w.mae, seed)
	params := model.MAE.Params()
	dim := opt.FlatDim(params)
	flat, grads := make([]float32, dim), randn(dim, gen)
	opt.UnpackGrads(params, grads)
	{
		adamw := opt.NewAdamW(params, 0.05)
		// w, g, m, v read and w, m, v written: 7 float32 per parameter.
		rec.layer("opt.adamw_gbps", "GB/s", 7*4*float64(dim)/perCall(budget, func() { adamw.Step(1e-4) })/1e9)
		half := dim / 2
		sharded := opt.NewShardedAdamW(params, 0.05, 0, half)
		opt.PackValues(flat, params)
		rec.layer("opt.sharded_adamw_ms", "ms", 1e3*perCall(budget, func() { sharded.Step(1e-4, flat[:half], grads[:half]) }))
		rec.layer("opt.pack_unpack_ms", "ms", 1e3*perCall(budget, func() {
			opt.PackGrads(flat, params)
			opt.UnpackValues(params, flat)
		}))
		wire := make([]uint16, dim)
		// 4 B read + 2 B written, then 2 B read + 4 B written.
		rec.layer("tensor.bf16_convert_gbps", "GB/s", 12*float64(dim)/perCall(budget, func() {
			tensor.ToBF16(wire, flat)
			tensor.FromBF16(flat, wire)
		})/1e9)
	}
	rec.layer("parallel.dispatch_us", "us", 1e6*perCall(budget, func() {
		parallel.RangeGrain(runtime.GOMAXPROCS(0), 1, func(lo, hi int) {})
	}))

	{ // collectives on a 2-rank world: the whole flat buffer in fp32, one gradient bucket in bf16
		even := dim / 2 * 2
		bufs := [2][]float32{randn(even, gen), randn(even, gen)}
		sec, err := perCollective(budget, func(r *dist.Rank) { r.AllReduce(bufs[r.ID()]) })
		if err != nil {
			return err
		}
		rec.layer("dist.allreduce_fp32_ms", "ms", 1e3*sec)

		bucket := even
		if b := w.bucketBytes / 2; b > 0 && b < bucket {
			bucket = b / 2 * 2
		}
		wires := [2][]uint16{make([]uint16, bucket), make([]uint16, bucket)}
		sec, err = perCollective(budget, func(r *dist.Rank) { r.ReduceScatterBF16(bufs[r.ID()][:bucket], wires[r.ID()]) })
		if err != nil {
			return err
		}
		rec.layer("dist.reduce_scatter_bf16_us", "us", 1e6*sec)
		sec, err = perCollective(budget, func(r *dist.Rank) { r.AllGatherBF16(bufs[r.ID()][:bucket], nil, wires[r.ID()]) })
		if err != nil {
			return err
		}
		rec.layer("dist.all_gather_bf16_us", "us", 1e6*sec)
		tiny := [2][]float32{make([]float32, 2), make([]float32, 2)}
		sec, err = perCollective(budget, func(r *dist.Rank) { r.AllReduceAsync(tiny[r.ID()]).Wait() })
		if err != nil {
			return err
		}
		rec.layer("dist.async_roundtrip_us", "us", 1e6*sec)
	}

	// The inference path: Model.Fill directly, then admission alone.
	width := w.mae.Encoder.Width
	model.AttachHeads(synthHead(width, 8, seed+101), synthHead(width, 3, seed+102))
	img := randn(model.ImageLen(), gen)
	ctx := nn.NewInferCtx()
	defer ctx.Release()
	for _, b := range []struct {
		name string
		n    int
	}{{"serve.fill_ms_b1", 1}, {"serve.fill_ms_b8", 8}} {
		reqs, resps := make([]*serve.Request, b.n), make([]*serve.Response, b.n)
		for i := range reqs {
			reqs[i] = &serve.Request{ID: uint64(i), Kind: mixedKinds[i%len(mixedKinds)], Img: img}
			resps[i] = &serve.Response{}
		}
		rec.layer(b.name, "ms", 1e3*perCall(budget, func() { model.Fill(ctx, reqs, resps) }))
	}
	srv, err := serve.NewServer(serve.Config{MaxBatch: 1, QueueCap: 4, Workers: 1}, model)
	if err != nil {
		return err
	}
	var submits []float64
	for start := time.Now(); time.Since(start) < budget || len(submits) < 3; {
		t0 := time.Now()
		ch, err := srv.Submit(serve.Embed, img)
		submits = append(submits, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		<-ch
	}
	srv.Drain()
	rec.layer("serve.submit_us", "us", 1e6*median(submits))
	return nil
}
