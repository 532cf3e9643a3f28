package geofm_test

import (
	"fmt"

	"repro/geofm"
)

// tinyEncoder returns a laptop-instant encoder configuration used by
// the runnable examples (the Table I analogs are bigger than an example
// needs).
func tinyEncoder() geofm.ViTConfig {
	return geofm.ViTConfig{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
}

func tinyMAE() geofm.MAEConfig {
	return geofm.MAEConfig{Encoder: tinyEncoder(),
		DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75}
}

// ExampleAnalog resolves a Table I variant's laptop-trainable analog.
func ExampleAnalog() {
	enc, err := geofm.Analog("ViT-1B", 32, 8, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(enc.Name)
	fmt.Println(enc.EncoderParams() > 0)
	// Output:
	// ViT-1B-analog
	// true
}

// ExampleAdvise asks the Section IV-E practical guide for a sharding
// plan.
func ExampleAdvise() {
	plan, _ := geofm.Advise(geofm.ViT5B, 32)
	fmt.Println(plan.Name())
	// Output:
	// HYBRID_8GPUs
}

// ExampleSimulate models one ViT-3B training step on 8 Frontier nodes.
func ExampleSimulate() {
	res, err := geofm.Simulate(
		geofm.ViTWorkload(geofm.ViT3B, 32),
		geofm.Frontier(), 8,
		geofm.BestPractice(geofm.ShardGradOp, 0))
	if err != nil {
		panic(err)
	}
	fmt.Println("world:", res.World)
	fmt.Println("fits in HBM:", res.Fits)
	fmt.Println("has collective calls:", res.CommCalls > 0)
	// Output:
	// world: 64
	// fits in HBM: true
	// has collective calls: true
}

// ExamplePretrain runs two real MAE pretraining steps on the
// procedural corpus.
func ExamplePretrain() {
	suite := geofm.NewSuite(1000, 12, 3, 1)
	cfg := geofm.DefaultPretrain(tinyMAE())
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	res, err := geofm.Pretrain(cfg, suite.Pretrain)
	if err != nil {
		panic(err)
	}
	fmt.Println("steps:", res.Steps)
	fmt.Println("loss positive:", res.LossCurve.Last() > 0)
	// Output:
	// steps: 2
	// loss positive: true
}

// ExamplePretrainDistributed trains the same recipe across two
// in-process ranks and checks the executed collective traffic against
// the simulator's per-step accounting.
func ExamplePretrainDistributed() {
	suite := geofm.NewSuite(1000, 12, 3, 1)
	cfg := geofm.DefaultDistPretrain(tinyMAE(), 2)
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8 // global; 4 per rank
	res, err := geofm.PretrainDistributed(cfg, suite.Pretrain)
	if err != nil {
		panic(err)
	}
	steps := float64(res.Steps)
	fmt.Println("ranks:", res.Ranks)
	fmt.Println("steps:", res.Steps)
	fmt.Println("measured == simulator accounting:",
		res.Comm.AllReduce.MeasuredWireBytes == res.Traffic.AllReduceBytes*steps)
	// Output:
	// ranks: 2
	// steps: 2
	// measured == simulator accounting: true
}

// ExamplePretrainDistributed_fullShard trains with FULL_SHARD: the
// ZeRO-3-style schedule where parameters are resharded after forward
// and re-gathered in backward, so each step moves one gradient
// reduce-scatter and two parameter all-gathers — exactly what the
// simulator charges.
func ExamplePretrainDistributed_fullShard() {
	suite := geofm.NewSuite(1000, 12, 3, 1)
	cfg := geofm.DefaultDistPretrain(tinyMAE(), 4)
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8 // global; 2 per rank
	cfg.Plan = geofm.BestPractice(geofm.FullShard, 0)
	res, err := geofm.PretrainDistributed(cfg, suite.Pretrain)
	if err != nil {
		panic(err)
	}
	steps := float64(res.Steps)
	fmt.Println("strategy:", cfg.Plan.Name())
	fmt.Println("reduce-scatter == simulator:",
		res.Comm.ReduceScatter.MeasuredWireBytes == res.Traffic.ReduceScatterBytes*steps)
	fmt.Println("all-gather == simulator:",
		res.Comm.AllGather.MeasuredWireBytes == res.Traffic.AllGatherBytes*steps)
	fmt.Println("all-gathers per step:", res.Comm.AllGather.Calls/res.Steps)
	// Output:
	// strategy: FULL_SHARD
	// reduce-scatter == simulator: true
	// all-gather == simulator: true
	// all-gathers per step: 2
}

// ExamplePretrainDistributed_hybrid trains with HYBRID_2GPUs on four
// ranks: FULL_SHARD collectives inside each 2-rank shard group plus a
// gradient-shard all-reduce across the two replica groups — the
// two-level scheme that makes the paper's 3B model trainable.
func ExamplePretrainDistributed_hybrid() {
	suite := geofm.NewSuite(1000, 12, 3, 1)
	cfg := geofm.DefaultDistPretrain(tinyMAE(), 4)
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	cfg.Plan = geofm.BestPractice(geofm.HybridShard, 2)
	res, err := geofm.PretrainDistributed(cfg, suite.Pretrain)
	if err != nil {
		panic(err)
	}
	steps := float64(res.Steps)
	fmt.Println("strategy:", cfg.Plan.Name())
	fmt.Println("group traffic == simulator:",
		res.Comm.ReduceScatter.MeasuredWireBytes == res.Traffic.ReduceScatterBytes*steps &&
			res.Comm.AllGather.MeasuredWireBytes == res.Traffic.AllGatherBytes*steps)
	fmt.Println("replica all-reduce == simulator:",
		res.Comm.AllReduce.MeasuredWireBytes == res.Traffic.AllReduceBytes*steps)
	// Output:
	// strategy: HYBRID_2GPUs
	// group traffic == simulator: true
	// replica all-reduce == simulator: true
}

// ExamplePredictStepTraffic prints the per-rank wire bytes one step
// moves for a million-parameter model under DDP and ZeRO-1 on 8 ranks,
// in both precisions — bf16 halves every volume.
func ExamplePredictStepTraffic() {
	const elems = 1 << 20
	ddp := geofm.PredictStepTraffic(geofm.DefaultDDP(), 8, elems, geofm.FP32)
	zero1 := geofm.PredictStepTraffic(geofm.BestPractice(geofm.ShardGradOp, 0), 8, elems, geofm.FP32)
	bf := geofm.PredictStepTraffic(geofm.DefaultDDP(), 8, elems, geofm.BF16)
	fmt.Println("ddp all-reduce MiB:", ddp.AllReduceBytes/(1<<20))
	fmt.Println("zero1 reduce-scatter MiB:", zero1.ReduceScatterBytes/(1<<20))
	fmt.Println("zero1 all-gather MiB:", zero1.AllGatherBytes/(1<<20))
	fmt.Println("ddp bf16 all-reduce MiB:", bf.AllReduceBytes/(1<<20))
	// Output:
	// ddp all-reduce MiB: 7
	// zero1 reduce-scatter MiB: 3.5
	// zero1 all-gather MiB: 3.5
	// ddp bf16 all-reduce MiB: 3.5
}

// ExamplePretrainDistributed_bf16 runs the executed mixed-precision
// mode: bf16 payloads on every gradient/parameter collective (half the
// fp32 wire bytes, still exactly the dtype-aware simulator accounting),
// fp32 master weights under dynamic loss scaling.
func ExamplePretrainDistributed_bf16() {
	suite := geofm.NewSuite(1000, 12, 3, 1)
	cfg := geofm.DefaultDistPretrain(tinyMAE(), 4)
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	cfg.Plan = geofm.BestPractice(geofm.ShardGradOp, 0)
	cfg.Precision = geofm.BF16
	res, err := geofm.PretrainDistributed(cfg, suite.Pretrain)
	if err != nil {
		panic(err)
	}
	steps := float64(res.Steps)
	fp32 := geofm.PredictStepTraffic(cfg.Plan, cfg.Ranks, geofm.FlatParamCount(res.Model), geofm.FP32)
	fmt.Println("precision:", res.Precision)
	fmt.Println("measured == simulator accounting:",
		res.Comm.ReduceScatter.MeasuredWireBytes == res.Traffic.ReduceScatterBytes*steps &&
			res.Comm.AllGather.MeasuredWireBytes == res.Traffic.AllGatherBytes*steps)
	fmt.Println("bf16 wire bytes are half of fp32:",
		2*res.Traffic.ReduceScatterBytes == fp32.ReduceScatterBytes)
	fmt.Println("loss scale:", res.FinalLossScale)
	// Output:
	// precision: bf16
	// measured == simulator accounting: true
	// bf16 wire bytes are half of fp32: true
	// loss scale: 65536
}

// ExamplePretrainDistributed_overlapAccum runs the overlapped,
// gradient-accumulating schedule: each gradient bucket's collective
// launches the moment the layer-granular backward finalizes it, four
// micro-batches accumulate into every optimizer step, and the result
// is bitwise identical to the synchronous path at exactly the
// simulator's per-step wire bytes.
func ExamplePretrainDistributed_overlapAccum() {
	suite := geofm.NewSuite(1000, 12, 3, 1)
	mk := func(overlap bool) *geofm.DistPretrainResult {
		cfg := geofm.DefaultDistPretrain(tinyMAE(), 2)
		cfg.Epochs = 1
		cfg.MaxStepsPerEpoch = 2
		cfg.BatchSize = 8 // global per micro-step; effective 32 with accum
		cfg.Overlap = overlap
		cfg.AccumSteps = 4
		res, err := geofm.PretrainDistributed(cfg, suite.Pretrain)
		if err != nil {
			panic(err)
		}
		return res
	}
	sync := mk(false)
	over := mk(true)
	steps := float64(over.Steps)
	fmt.Println("optimizer steps:", over.Steps)
	fmt.Println("bitwise identical to synchronous:", over.LossCurve.Last() == sync.LossCurve.Last())
	fmt.Println("bytes == simulator accounting per optimizer step:",
		over.Comm.AllReduce.MeasuredWireBytes == over.Traffic.AllReduceBytes*steps)
	// Output:
	// optimizer steps: 2
	// bitwise identical to synchronous: true
	// bytes == simulator accounting per optimizer step: true
}

// Example_serving runs the inference serving stack on the virtual
// clock: a burst of embedding requests flows through the dynamic
// batcher (close on size or deadline) and every number below is
// exactly reproducible run to run.
func Example_serving() {
	cfg := geofm.ServeConfig{MaxBatch: 4, MaxWaitSec: 1e-3, QueueCap: 16, Workers: 1}
	m := geofm.NewServeModel(tinyMAE(), 1)
	lat := geofm.DefaultServeLatency(tinyMAE().Encoder)
	img := make([]float32, tinyEncoder().ImageSize*tinyEncoder().ImageSize*tinyEncoder().Channels)
	arrivals := make([]geofm.ServeArrival, 6)
	for i := range arrivals {
		arrivals[i] = geofm.ServeArrival{AtSec: float64(i) * 1e-4, Kind: geofm.ServeEmbed, Img: img}
	}
	res, err := geofm.ServeVirtual(cfg, lat, m, arrivals)
	if err != nil {
		panic(err)
	}
	rep := geofm.ServeSummarize("burst", res)
	fmt.Println("served:", rep.Served, "shed:", rep.Shed)
	for _, b := range res.Batches {
		fmt.Printf("batch of %d closed by %s\n", len(b.IDs), b.Reason)
	}
	fmt.Println("embedding width:", len(res.Responses[0].Embedding))
	// Output:
	// served: 6 shed: 0
	// batch of 4 closed by size
	// batch of 2 closed by deadline
	// embedding width: 16
}

// ExampleAdvise_tableI recommends a sharding plan for every Table I
// model at 32 nodes — the Section IV-E guide as a lookup table.
func ExampleAdvise_tableI() {
	for _, model := range geofm.TableI {
		plan, _ := geofm.Advise(model, 32)
		fmt.Printf("%s: %s\n", model.Name, plan.Name())
	}
	// Output:
	// ViT-Base: HYBRID_1GPU
	// ViT-Huge: HYBRID_1GPU
	// ViT-1B: HYBRID_1GPU
	// ViT-3B: HYBRID_1GPU
	// ViT-5B: HYBRID_8GPUs
	// ViT-15B: SHARD_GRAD_OP
}

// ExampleLinearProbe pretrains a tiny encoder for two steps, then
// trains a linear classifier on its frozen features over the UCM
// analog — the Section V pipeline end to end.
func ExampleLinearProbe() {
	suite := geofm.NewSuite(100, 12, 3, 1)
	cfg := geofm.DefaultPretrain(tinyMAE())
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	pre, err := geofm.Pretrain(cfg, suite.Pretrain)
	if err != nil {
		panic(err)
	}
	probeCfg := geofm.DefaultProbe(8)
	probeCfg.Epochs = 3
	ucm := suite.Probe[1]
	res, err := geofm.LinearProbe(probeCfg, pre.Model.Features, tinyEncoder().Width, ucm)
	if err != nil {
		panic(err)
	}
	fmt.Println("dataset:", res.Dataset, "classes:", ucm.Classes())
	fmt.Println("train/test images:", res.TrainCount, res.TestCount)
	fmt.Println("epochs evaluated:", len(res.Top1Curve.Y))
	fmt.Println("top-1 <= top-5:", res.FinalTop1 <= res.FinalTop5)
	// Output:
	// dataset: UCM classes: 21
	// train/test images: 21 21
	// epochs evaluated: 3
	// top-1 <= top-5: true
}
