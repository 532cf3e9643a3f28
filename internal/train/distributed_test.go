package train

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/opt"
	"repro/internal/vit"
)

func tinyDistConfig(ranks int, plan fsdp.Plan) DistConfig {
	return DistConfig{
		PretrainConfig: PretrainConfig{
			MAE:          tinyMAE(),
			BatchSize:    8, // global; split across ranks
			Epochs:       3,
			BaseLR:       0.02,
			WeightDecay:  0.05,
			WarmupEpochs: 1,
			ClipNorm:     5,
			Workers:      2,
			Seed:         3,
		},
		Ranks: ranks,
		Plan:  plan,
	}
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestDistributedMatchesSingleRank is the acceptance bar of the
// distributed layer: a 4-rank DDP run must reproduce the single-rank
// Pretrain loss trajectory — same data order, same masks, gradients
// averaged to the same global mean — with the final loss within 1e-4.
func TestDistributedMatchesSingleRank(t *testing.T) {
	dcfg := tinyDistConfig(4, fsdp.DefaultDDP())
	ref, err := Pretrain(dcfg.PretrainConfig, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	got, err := PretrainDistributed(dcfg, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != ref.Steps {
		t.Fatalf("steps: distributed %d, single-rank %d", got.Steps, ref.Steps)
	}
	if len(got.LossCurve.Y) != len(ref.LossCurve.Y) {
		t.Fatalf("curve lengths differ: %d vs %d", len(got.LossCurve.Y), len(ref.LossCurve.Y))
	}
	for i := range ref.LossCurve.Y {
		if !relClose(got.LossCurve.Y[i], ref.LossCurve.Y[i], 1e-4) {
			t.Fatalf("loss diverges at step %d: distributed %v, single-rank %v",
				i, got.LossCurve.Y[i], ref.LossCurve.Y[i])
		}
	}
	if !relClose(got.LossCurve.Last(), ref.LossCurve.Last(), 1e-4) {
		t.Fatalf("final loss: distributed %v, single-rank %v", got.LossCurve.Last(), ref.LossCurve.Last())
	}
}

// TestZeRO1MatchesDDP: the sharded-optimizer path must train the same
// trajectory as the replicated path (the reduced gradient chunks are
// identical; only clip-norm accumulation order differs).
func TestZeRO1MatchesDDP(t *testing.T) {
	ddp, err := PretrainDistributed(tinyDistConfig(4, fsdp.DefaultDDP()), tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	zero1, err := PretrainDistributed(tinyDistConfig(4, fsdp.BestPractice(fsdp.ShardGradOp, 0)), tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ddp.LossCurve.Y {
		if !relClose(zero1.LossCurve.Y[i], ddp.LossCurve.Y[i], 1e-4) {
			t.Fatalf("ZeRO-1 diverges from DDP at step %d: %v vs %v",
				i, zero1.LossCurve.Y[i], ddp.LossCurve.Y[i])
		}
	}
}

// TestReplicasStayIdentical: after training, every rank must hold
// bit-identical parameters — the invariant the collectives guarantee.
func TestReplicasStayIdentical(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.ShardGradOp, 0)} {
		res, err := PretrainDistributed(tinyDistConfig(4, plan), tinyDataset(64))
		if err != nil {
			t.Fatal(err)
		}
		dim := opt.FlatDim(res.Model.Params())
		ref := make([]float32, dim)
		opt.PackValues(ref, res.Model.Params())
		for rank := 1; rank < len(res.replicas); rank++ {
			buf := make([]float32, dim)
			opt.PackValues(buf, res.replicas[rank].Params())
			for j := range buf {
				if buf[j] != ref[j] {
					t.Fatalf("%s: rank %d diverged from rank 0 at flat element %d", plan.Name(), rank, j)
				}
			}
		}
	}
}

// TestDistTrafficMatchesSimulator pins the executed per-step collective
// bytes to fsdp.TrafficPerStep — the acceptance criterion that the real
// execution and the Section IV simulator account the same traffic.
func TestDistTrafficMatchesSimulator(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.ShardGradOp, 0)} {
		cfg := tinyDistConfig(2, plan)
		cfg.Epochs = 2
		res, err := PretrainDistributed(cfg, tinyDataset(32))
		if err != nil {
			t.Fatal(err)
		}
		steps := float64(res.Steps)
		if steps == 0 {
			t.Fatal("no steps")
		}
		checks := []struct {
			name           string
			measured, want float64
		}{
			{"all-reduce", res.Comm.AllReduce.MeasuredWireBytes, res.Traffic.AllReduceBytes * steps},
			{"reduce-scatter", res.Comm.ReduceScatter.MeasuredWireBytes, res.Traffic.ReduceScatterBytes * steps},
			{"all-gather", res.Comm.AllGather.MeasuredWireBytes, res.Traffic.AllGatherBytes * steps},
		}
		for _, c := range checks {
			if c.measured != c.want {
				t.Errorf("%s %s: measured %v bytes over %v steps, simulator accounts %v",
					plan.Name(), c.name, c.measured, steps, c.want)
			}
		}
		// The α–β model prices the identical byte volume.
		if res.Comm.AllReduce.ModelWireBytes != res.Comm.AllReduce.MeasuredWireBytes {
			t.Errorf("%s: modeled AR bytes %v != measured %v",
				plan.Name(), res.Comm.AllReduce.ModelWireBytes, res.Comm.AllReduce.MeasuredWireBytes)
		}
		// Init broadcast: one call, full parameter payload.
		if res.Comm.Broadcast.Calls != 1 {
			t.Errorf("%s: broadcast calls %d", plan.Name(), res.Comm.Broadcast.Calls)
		}
		wantB := float64(4 * opt.FlatDim(res.Model.Params()))
		if res.Comm.Broadcast.MeasuredWireBytes != wantB {
			t.Errorf("%s: broadcast bytes %v want %v", plan.Name(), res.Comm.Broadcast.MeasuredWireBytes, wantB)
		}
	}
}

// TestSingleRankDistributedMatchesPretrain: the degenerate world — what
// Pretrain runs — does the very same arithmetic as the per-parameter
// reference loop (collectives are no-ops), so the curves must match
// bit-for-bit.
func TestSingleRankDistributedMatchesPretrain(t *testing.T) {
	dcfg := tinyDistConfig(1, fsdp.DefaultDDP())
	ref, _ := referencePretrain(t, dcfg.PretrainConfig, tinyDataset(32), nil)
	got, err := PretrainDistributed(dcfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.LossCurve.Y) != len(ref) {
		t.Fatalf("1-rank distributed ran %d steps, the reference loop %d", len(got.LossCurve.Y), len(ref))
	}
	for i := range ref {
		if got.LossCurve.Y[i] != ref[i] {
			t.Fatalf("1-rank distributed differs from the reference loop at step %d: %v vs %v",
				i, got.LossCurve.Y[i], ref[i])
		}
	}
	if got.Traffic.Total() != 0 || got.Comm.AllReduce.MeasuredWireBytes != 0 {
		t.Fatalf("1-rank world moved bytes: %+v", got.Traffic)
	}
}

// TestSingleRankEveryStrategyMatchesPretrain: on a one-rank world every
// strategy that can tile it — the "sharded" ones included, whose shard
// group degenerates to a single owner of the whole flat space — runs
// the same arithmetic as the per-parameter reference loop and moves no
// bytes.
func TestSingleRankEveryStrategyMatchesPretrain(t *testing.T) {
	ref, _ := referencePretrain(t, tinyDistConfig(1, fsdp.DefaultDDP()).PretrainConfig, tinyDataset(32), nil)
	for _, plan := range matrixPlans() {
		if plan.Validate(1) != nil {
			continue // HYBRID_kGPUs, k>1, cannot tile one rank
		}
		got, err := PretrainDistributed(tinyDistConfig(1, plan), tinyDataset(32))
		if err != nil {
			t.Fatalf("%s: %v", plan.Name(), err)
		}
		if len(got.LossCurve.Y) != len(ref) {
			t.Fatalf("%s: ran %d steps, the reference loop %d", plan.Name(), len(got.LossCurve.Y), len(ref))
		}
		for i := range ref {
			if got.LossCurve.Y[i] != ref[i] {
				t.Fatalf("%s: 1-rank distributed differs from the reference loop at step %d: %v vs %v",
					plan.Name(), i, got.LossCurve.Y[i], ref[i])
			}
		}
		c := got.Comm
		if got.Traffic.Total() != 0 || c.AllReduce.MeasuredWireBytes+c.ReduceScatter.MeasuredWireBytes+c.AllGather.MeasuredWireBytes != 0 {
			t.Fatalf("%s: 1-rank world moved bytes: %+v", plan.Name(), got.Traffic)
		}
	}
}

// TestDistributedRejectsInvalidPlans: configurations the executor
// cannot honor fail fast before any rank spawns.
func TestDistributedRejectsInvalidPlans(t *testing.T) {
	// A hybrid group that does not divide the world.
	if _, err := PretrainDistributed(tinyDistConfig(4, fsdp.BestPractice(fsdp.HybridShard, 3)), tinyDataset(64)); err == nil {
		t.Error("HYBRID_3GPUs on 4 ranks: expected an error")
	}
	// A non-positive hybrid group.
	if _, err := PretrainDistributed(tinyDistConfig(4, fsdp.Plan{Strategy: fsdp.HybridShard}), tinyDataset(64)); err == nil {
		t.Error("HYBRID with zero group: expected an error")
	}
	// An unknown strategy value.
	if _, err := PretrainDistributed(tinyDistConfig(4, fsdp.Plan{Strategy: fsdp.Strategy(99)}), tinyDataset(64)); err == nil {
		t.Error("unknown strategy: expected an error")
	}
	// Batch not divisible by ranks.
	cfg := tinyDistConfig(3, fsdp.DefaultDDP())
	if _, err := PretrainDistributed(cfg, tinyDataset(64)); err == nil {
		t.Error("expected error for 8 % 3 != 0")
	}
	// No ranks at all.
	if _, err := PretrainDistributed(tinyDistConfig(0, fsdp.Plan{}), tinyDataset(64)); err == nil ||
		!strings.Contains(err.Error(), "non-positive rank count") {
		t.Errorf("zero ranks: err = %v, want a non-positive rank count error", err)
	}
}

// TestActivationBytes: DistResult.ActivationBytes is rank 0's
// recording-arena footprint after the run. At pretrain_compute's shape
// (ViT-3B analog, 64-pixel images in 4-pixel patches, batch 16, one
// rank) it is mae's closed form for a step (stepFloats, pinned by
// mae's TestStepActivationBytes): 52 391 936 bytes, 49.96 MiB.
func TestActivationBytes(t *testing.T) {
	enc, err := vit.Analog("ViT-3B", 64, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPretrain(mae.Default(enc))
	cfg.BatchSize, cfg.Epochs, cfg.MaxStepsPerEpoch, cfg.Workers, cfg.Seed = 16, 1, 1, 1, 1
	ds := &geodata.Dataset{Name: "pretrain_compute", Gen: geodata.NewSceneGen(8, 64, 3, 5), TrainCount: 16}
	res, err := PretrainDistributed(DistConfig{PretrainConfig: cfg, Ranks: 1}, ds)
	if err != nil {
		t.Fatal(err)
	}
	const want = 52391936
	if res.ActivationBytes != want {
		t.Fatalf("ActivationBytes %d, want %d", res.ActivationBytes, want)
	}
}
