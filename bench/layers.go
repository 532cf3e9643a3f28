package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/calib"
	"repro/internal/dataload"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/train"
)

// runTraced is the second, shorter kind of run: the recorder is on,
// the spans go to bench/out/<workload>.trace.json, and the per-layer
// ledger is reported in place of the end-to-end metrics. Every
// workload fills the whole ledger at its own shapes; the request-path
// rows exist only where there is a server and read 0 elsewhere.
func runTraced(w workload, seed uint64, seconds float64, rec *runRecord) error {
	r := newRecorder()
	budget := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second))
	}
	var s *served
	if w.serve != nil {
		var err error
		if s, err = w.serveSetup(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	// The host's measured GEMM roofline top: the ceiling train.mfu is a
	// fraction of, and a probe row of its own.
	peak := calib.MeasureRoofline(w.gemmShapes, 20*time.Millisecond).PeakGFLOPS()
	if err := stepLedger(w, seed, peak, r, rec); err != nil {
		return err
	}
	if err := distLedger(w, seed, r, rec); err != nil {
		return err
	}
	if err := probeLedger(w, seed, budget(0.012), peak, r, rec); err != nil {
		return err
	}
	if err := requestLedger(w, s, seed, seconds, r, rec); err != nil {
		return err
	}
	return r.writeChrome(filepath.Join(outDir, w.name+".trace.json"))
}

// backwardGroups names the layer group each mae.BackwardSegments unit
// belongs to, in completion order: prediction head and decoder norm,
// decoder blocks, decoder embedding (with the mask token), encoder norm
// and blocks, patch embedding.
func backwardGroups(cfg mae.Config) []string {
	groups := []string{"mae.bwd_head", "mae.bwd_head"}
	for i := 0; i < cfg.DecoderDepth; i++ {
		groups = append(groups, "mae.bwd_decoder")
	}
	groups = append(groups, "mae.bwd_dec_embed", "mae.bwd_encoder")
	for i := 0; i < cfg.Encoder.Depth; i++ {
		groups = append(groups, "mae.bwd_encoder")
	}
	return append(groups, "mae.bwd_patch_embed")
}

// tracedSteps is train.Pretrain's step loop rebuilt from public calls,
// one span per layer boundary under a step parent. It must train the
// exact trajectory train.Pretrain does (stepLedger asserts that
// bitwise), so every constant here mirrors that function. Only even
// steps are recorded: odd steps run the same loop with the recorder
// off, so traced and untraced steps share one model, one heap and one
// stretch of wall clock, and their difference is the recorder alone.
// It returns the loss trajectory and every step's wall time.
func tracedSteps(w workload, seed uint64, steps int, r *spanRecorder) (loss, stepSec []float64) {
	cfg := w.pretrainConfig(seed, steps)
	ds := w.dataset(seed, steps)
	model := mae.New(cfg.MAE, rng.New(cfg.Seed))
	params := model.Params()
	optim := opt.NewAdamW(params, cfg.WeightDecay)
	sched := opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, cfg.BatchSize),
		WarmupSteps: cfg.WarmupEpochs * steps,
		TotalSteps:  cfg.Epochs * steps,
	}
	loader := dataload.New(
		dataload.TrainSplit{D: ds, Count: ds.TrainCount, ImgLen: ds.Gen.ImageLen()},
		dataload.Config{BatchSize: cfg.BatchSize, Workers: cfg.Workers, Shuffle: true, DropLast: true,
			Seed: cfg.Seed ^ 0xDA7A})
	groups := backwardGroups(cfg.MAE)

	waitFrom := time.Now()
	step := 0
	for batch := range loader.EpochN(steps) {
		got := time.Now()
		var sr *spanRecorder
		if step%2 == 0 {
			sr = r
		}
		id := int64(step)
		st := sr.beginAt("step", -1, id, waitFrom)
		sr.add("dataload.wait", st, id, 0, waitFrom, got)

		sp := sr.begin("nn.zero_grads", st, id)
		nn.ZeroGrads(params)
		sr.end(sp)

		sp = sr.begin("mae.forward", st, id)
		keep := model.DrawMasks(batch.Size)
		loss = append(loss, model.ForwardWithMask(batch.Images, batch.Size, keep))
		sr.end(sp)

		bw := sr.begin("mae.backward", st, id)
		cur := sr.begin(groups[0], bw, id)
		model.BackwardStepLayers(func(k int) {
			if k+1 < len(groups) && groups[k+1] != groups[k] {
				sr.end(cur)
				cur = sr.begin(groups[k+1], bw, id)
			}
		})
		sr.end(cur)
		sr.end(bw)

		sp = sr.begin("nn.clip", st, id)
		nn.ClipGradNorm(params, cfg.ClipNorm)
		sr.end(sp)

		sp = sr.begin("opt.adamw", st, id)
		optim.Step(sched.LR(step))
		sr.end(sp)

		loader.Recycle(batch)
		sr.end(st)
		step++
		now := time.Now()
		stepSec = append(stepSec, now.Sub(waitFrom).Seconds())
		waitFrom = now
	}
	return loss, stepSec
}

// stepLedger runs train.Pretrain and then the benchmark's own step
// loop for the same steps: the two must train the same trajectory
// bitwise. The recorded (even) steps' spans fill the per-step rows as
// medians; the unrecorded (odd) steps give the untraced step time;
// their difference is the tracing overhead, and what the spans' sum
// leaves of the untraced step is the residual no span explains. Step 0
// grows every scratch buffer and is left out of all of it.
func stepLedger(w workload, seed uint64, peakGFLOPS float64, r *spanRecorder, rec *runRecord) error {
	steps := w.ledgerSteps
	ref, err := train.Pretrain(w.pretrainConfig(seed, steps), w.dataset(seed, steps))
	if err != nil {
		return err
	}
	from := len(r.spans)
	loss, stepSec := tracedSteps(w, seed, steps, r)
	rec.check("traced_loop_bitwise", sameBits(loss, ref.LossCurve.Y),
		"the benchmark's step loop and train.Pretrain trained different loss trajectories")
	rec.Attempted += steps

	// Steps 1, 3, 5, … ran untraced and each is followed by a traced
	// step: the overhead is judged pair by pair, so that a slow stretch
	// of the host weighs on both sides of a pair.
	var untraced, overhead []float64
	for i := 1; i < len(stepSec); i += 2 {
		untraced = append(untraced, 1e3*stepSec[i])
		if i+1 < len(stepSec) {
			overhead = append(overhead, (stepSec[i+1]-stepSec[i])/stepSec[i])
		}
	}
	stepMs := median(untraced)
	byName := map[string][]float64{}
	for _, s := range r.spans[from:] {
		if s.ID > 0 {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	var spanSum float64
	for _, name := range []string{"dataload.wait", "nn.zero_grads", "mae.forward", "mae.backward", "nn.clip", "opt.adamw"} {
		rec.layer(name+"_ms", "ms", median(byName[name]))
		spanSum += median(byName[name])
	}
	for _, name := range []string{"mae.bwd_head", "mae.bwd_decoder", "mae.bwd_dec_embed", "mae.bwd_encoder", "mae.bwd_patch_embed"} {
		rec.layer(name+"_ms", "ms", median(byName[name]))
	}
	rec.layer("train.step_ms", "ms", stepMs)
	rec.layer("train.untraced_residual_share", "ratio", 1-spanSum/stepMs)
	rec.layer("train.trace_overhead_share", "ratio", median(overhead))
	rec.layer("train.loss_final", "loss", last(loss))

	wl, err := train.WorkloadFor(w.distConfig(seed, steps, 1))
	if err != nil {
		return err
	}
	stepGFLOPS := wl.TotalStepFLOPs() / (stepMs * 1e-3) / 1e9
	rec.layer("train.step_gflops", "GF/s", stepGFLOPS)
	rec.layer("train.mfu", "ratio", stepGFLOPS/peakGFLOPS)
	return nil
}

// distLedger runs the workload's own PretrainDistributed configuration
// (1 rank DDP for the single-process workloads) over two epochs with a
// checkpoint between them, and the same configuration on one rank as
// the scaling baseline; it then times a checkpoint round trip of the
// final state.
func distLedger(w workload, seed uint64, r *spanRecorder, rec *runRecord) error {
	ranks := w.ranks
	if ranks == 0 {
		ranks = 1
	}
	perEpoch := w.distSteps / 2
	run := func(ranks int) (*train.DistResult, float64, time.Duration, error) {
		cfg := w.distConfig(seed, perEpoch, ranks)
		cfg.Epochs = 2
		cfg.CheckpointEvery = 1
		var capture time.Duration
		cfg.OnCheckpoint = func(_ *train.TrainState, wall time.Duration) { capture = wall }
		sp := r.begin(fmt.Sprintf("train.PretrainDistributed/%d-rank", ranks), -1, int64(ranks))
		t0 := time.Now()
		res, err := train.PretrainDistributed(cfg, w.dataset(seed, 2*perEpoch))
		wall := time.Since(t0).Seconds()
		r.end(sp)
		return res, wall, capture, err
	}
	res, wall, capture, err := run(ranks)
	if err != nil {
		return err
	}
	single, singleWall := res, wall
	if ranks > 1 {
		if single, singleWall, _, err = run(1); err != nil {
			return err
		}
		rec.checkRanksAgree(ranks, res.LossCurve.Last(), single.LossCurve.Last())
	}
	rec.checkWireBytes(res)
	rec.Attempted += res.Steps
	rec.Failed += res.SkippedSteps

	n := float64(res.Steps)
	images := float64(w.batch) * n
	rec.layer("dist.step_ms", "ms", 1e3*res.WallSec/n)
	rec.layer("dist.exposed_comm_ms", "ms", 1e3*res.ExposedCommSec/n)
	rec.layer("dist.exposed_comm_share", "ratio", res.ExposedCommSec/res.WallSec)
	rec.layer("train.compute_ms", "ms", 1e3*res.ComputeSec/n)
	rec.layer("dist.calls_per_step", "count", callsPerStep(res))
	rec.layer("dist.wire_bytes_per_step", "B", wireBytesPerStep(res))
	rec.layer("train.skipped_steps", "count", float64(res.SkippedSteps))
	rec.layer("train.scale_backoffs", "count", float64(res.ScaleBackoffs))
	rec.layer("train.images_per_s_1rank", "1/s", images/singleWall)
	rec.layer("train.scaling_efficiency", "ratio", singleWall/wall)
	rec.layer("train.ckpt_capture_ms", "ms", 1e3*capture.Seconds())

	sp := r.begin("train.checkpoint_round_trip", -1, 0)
	back, ck, err := checkpointRoundTrip(w.name+".ledger", res.State)
	r.end(sp)
	if err != nil {
		return err
	}
	rec.check("ckpt_round_trip_bitwise", sameBits32(back.Master, res.State.Master), "LoadTrainStateFile did not restore Master bitwise")
	rec.layer("train.ckpt_save_ms", "ms", 1e3*ck.saveSec)
	rec.layer("train.ckpt_load_ms", "ms", 1e3*ck.loadSec)
	rec.layer("train.ckpt_bytes", "B", float64(ck.bytes))
	return nil
}

// requestLedger runs the three load phases of a serving workload with
// the recorder on — closed loop, open loop at rateLo, open loop at
// rateHi — and turns every reply's four trace stamps into a request
// span with late / form_wait / dispatch_wait / compute children. The
// rows are shares of request latency and counts, so they read 0, not a
// fake time, on workloads that have no server.
func requestLedger(w workload, s *served, seed uint64, seconds float64, r *spanRecorder, rec *runRecord) error {
	v := map[string]float64{}
	defer func() {
		for _, name := range []string{"loadgen.late_share_hi", "serve.form_wait_share_lo", "serve.form_wait_share_hi",
			"serve.dispatch_wait_share_hi", "serve.compute_share_hi", "serve.tail_ratio_lo", "serve.tail_ratio_hi",
			"serve.queueing_ratio_hi", "serve.batch_occupancy_closed", "serve.batch_occupancy_lo",
			"serve.batch_occupancy_hi", "serve.utilization_closed", "serve.achieved_share_hi"} {
			rec.layer(name, "ratio", v[name])
		}
		rec.layer("serve.shed_count", "count", v["serve.shed_count"])
	}()
	if s == nil {
		return nil
	}
	sv := w.serve
	closed, err := closedLoop(s, sv.cfg, sv.clients, 0, 0.12*seconds)
	if err != nil {
		return err
	}
	lo, err := openLoop(s, sv.cfg, "lo", sv.rateLo, 0.15*seconds, seed*7919+1)
	if err != nil {
		return err
	}
	hi, err := openLoop(s, sv.cfg, "hi", sv.rateHi, 0.25*seconds, seed*7919+2)
	if err != nil {
		return err
	}
	for lane, p := range []*phase{closed, lo, hi} {
		for stage, share := range recordRequests(r, p, lane) {
			v[stage+"_share_"+p.name] = share
		}
		v["serve.batch_occupancy_"+p.name] = float64(p.stats.Served) / float64(len(p.stats.Batches)) / float64(sv.cfg.MaxBatch)
		v["serve.shed_count"] += float64(p.stats.Shed)
	}
	p50 := func(p *phase) float64 { return serve.Percentile(latenciesMs(p.ok()), 0.5) }
	p99 := func(p *phase) float64 { return serve.Percentile(latenciesMs(p.ok()), 0.99) }
	v["serve.tail_ratio_lo"] = p99(lo) / p50(lo)
	v["serve.tail_ratio_hi"] = p99(hi) / p50(hi)
	v["serve.queueing_ratio_hi"] = p50(hi) / p50(lo)
	var busy float64
	for _, b := range closed.stats.Batches {
		busy += b.DoneSec - b.StartSec
	}
	v["serve.utilization_closed"] = busy / (float64(sv.cfg.Workers) * closed.wallSec)
	v["serve.achieved_share_hi"] = float64(hi.stats.Served) / hi.wallSec / sv.rateHi
	rec.Attempted += closed.sent + lo.sent + hi.sent
	rec.Failed += closed.failed() + lo.failed() + hi.failed()
	rec.serveChecks(s, closed, lo, hi)
	return nil
}

// recordRequests adds one request span per served reply of the phase —
// from its due time to its completion — with the four stages as
// children, and returns each stage's share of the phase's total request
// latency.
func recordRequests(r *spanRecorder, p *phase, lane int) map[string]float64 {
	at := func(sec float64) time.Time { return p.start.Add(time.Duration(sec * float64(time.Second))) }
	total := map[string]float64{}
	var latency float64
	for _, rp := range p.ok() {
		tr := rp.resp.Trace
		id := int64(tr.ID)
		req := r.add("request/"+p.name, -1, id, 100*(lane+1)+int(tr.ID%32), at(rp.dueSec), at(tr.DoneSec))
		stages := []struct {
			name     string
			from, to float64
		}{
			{"loadgen.late", rp.dueSec, tr.ArrivalSec},
			{"serve.form_wait", tr.ArrivalSec, tr.BatchFormSec},
			{"serve.dispatch_wait", tr.BatchFormSec, tr.ComputeStartSec},
			{"serve.compute", tr.ComputeStartSec, tr.DoneSec},
		}
		for _, st := range stages {
			r.add(st.name, req, id, r.spans[req].Lane, at(st.from), at(st.to))
			total[st.name] += st.to - st.from
		}
		latency += rp.latencySec()
	}
	for name := range total {
		total[name] /= latency
	}
	return total
}

// layer reports one per-layer metric.
func (rec *runRecord) layer(name, unit string, v float64) {
	rec.Metrics[name] = metric{Value: v, Unit: unit}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
