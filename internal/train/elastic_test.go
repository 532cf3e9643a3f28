package train

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/mae"
	"repro/internal/opt"
)

// TestElasticShrinkBitwise is the fault-tolerance acceptance bar: a
// 4-rank run killed by an injected rank death mid-epoch 3, shrunk to 2
// ranks and resumed by the elastic driver from its epoch-2 checkpoint
// must train the remaining epochs bitwise-identically to an
// uninterrupted 2-rank run resumed from the same checkpoint — for
// every strategy × precision. The global batch,
// schedule and mask streams are world-invariant, so the only thing that
// may differ between the two runs is ring reassociation — and the
// paired comparison holds even that to zero, because both runs execute
// the same 2-rank collectives.
func TestElasticShrinkBitwise(t *testing.T) {
	cases := []struct {
		plan fsdp.Plan
		prec Precision
	}{
		{fsdp.DefaultDDP(), FP32},
		{fsdp.BestPractice(fsdp.FullShard, 0), BF16},
		{fsdp.BestPractice(fsdp.HybridShard, 2), BF16},
		{fsdp.DefaultDDP(), BF16},
		{fsdp.BestPractice(fsdp.ShardGradOp, 0), FP32},
		{fsdp.BestPractice(fsdp.ShardGradOp, 0), BF16},
		{fsdp.BestPractice(fsdp.FullShard, 0), FP32},
		{fsdp.BestPractice(fsdp.HybridShard, 2), FP32},
	}
	if testing.Short() {
		cases = cases[:3] // one replicated, one sharded, one hybrid leg
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.plan.Name(), c.prec), func(t *testing.T) {
			base := tinyDistConfig(4, c.plan)
			base.Epochs = 4
			base.Precision = c.prec

			// The uninterrupted 4-rank run gives both the epoch-2
			// snapshot the elastic run must resume from and the fault
			// site: it enters the init broadcast and four epochs'
			// collectives, so epoch 2 ends at entry (calls+1)/2, and
			// ×1.25 past it lands mid-epoch 3.
			full, want := snapshotAt(t, base, 32, 2)
			epoch2 := (full.CollectiveCalls + 1) / 2
			killAt := epoch2 + epoch2/4
			if killAt <= epoch2 {
				t.Fatalf("degenerate fault site %d (epoch 2 ends at entry %d)", killAt, epoch2)
			}

			// Elastic run: checkpoint every epoch, kill rank 1 mid-epoch
			// 3, shrink 4→2 and continue.
			ecfg := ElasticConfig{DistConfig: base, ShrinkTo: 2}
			ecfg.CheckpointEvery = 1
			ecfg.Fault = dist.FaultPlan{Rank: 1, Call: killAt}
			e, err := PretrainElastic(ecfg, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			if e.Failures != 1 || len(e.Worlds) != 2 || e.Worlds[0] != 4 || e.Worlds[1] != 2 {
				t.Fatalf("failures %d, worlds %v, want one death and a 4→2 shrink", e.Failures, e.Worlds)
			}
			// Leg 1 checkpointed epochs 1 and 2 before dying; the shrunk
			// leg checkpoints epoch 3 (epoch 4 is the final state).
			if e.Checkpoints != 3 {
				t.Fatalf("%d checkpoints, want 3", e.Checkpoints)
			}
			if e.Checkpoint == nil || e.Checkpoint.Epoch != 2 {
				t.Fatalf("resume point %+v, want the epoch-2 checkpoint", e.Checkpoint)
			}
			if e.CheckpointSec < 0 || e.RestartSec < 0 || e.LostWorkSec <= 0 {
				t.Fatalf("overhead accounting: ckpt %v restart %v lost %v",
					e.CheckpointSec, e.RestartSec, e.LostWorkSec)
			}

			// The elastic resume point must be exactly the uninterrupted
			// run's epoch-2 snapshot, and the shrunk leg resumes it as
			// it is.
			if !bitsEqual(e.Checkpoint.Master, want.Master) ||
				!bitsEqual(e.Checkpoint.OptM, want.OptM) ||
				!bitsEqual(e.Checkpoint.OptV, want.OptV) {
				t.Fatal("elastic resume point differs from the uninterrupted checkpoint")
			}
			if e.Checkpoint.Step != want.Step || e.Checkpoint.OptStep != want.OptStep ||
				e.Checkpoint.Precision != want.Precision || e.Checkpoint.AccumSteps != want.AccumSteps ||
				e.Checkpoint.LossScale != want.LossScale ||
				e.Checkpoint.ScaleGoodSteps != want.ScaleGoodSteps {
				t.Fatalf("resume point counters %+v vs %+v", e.Checkpoint, want)
			}

			// Reference: an uninterrupted 2-rank run resumed directly
			// from that snapshot.
			refCfg := base
			refCfg.Ranks = 2
			refCfg.Resume = want
			ref, err := PretrainDistributed(refCfg, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}

			// Headline: the shrunk continuation is bitwise identical.
			if e.Steps != ref.Steps {
				t.Fatalf("elastic final leg ran %d steps, reference %d", e.Steps, ref.Steps)
			}
			if len(e.LossCurve.Y) != len(ref.LossCurve.Y) {
				t.Fatalf("loss curves %d vs %d points", len(e.LossCurve.Y), len(ref.LossCurve.Y))
			}
			for i := range e.LossCurve.Y {
				if math.Float64bits(e.LossCurve.Y[i]) != math.Float64bits(ref.LossCurve.Y[i]) ||
					e.LossCurve.X[i] != ref.LossCurve.X[i] {
					t.Fatalf("loss differs at point %d: %v vs %v", i, e.LossCurve.Y[i], ref.LossCurve.Y[i])
				}
			}
			if !bitsEqual(e.State.Master, ref.State.Master) ||
				!bitsEqual(e.State.OptM, ref.State.OptM) ||
				!bitsEqual(e.State.OptV, ref.State.OptV) {
				t.Fatal("final training state differs from the uninterrupted reference")
			}
			if e.State.Step != ref.State.Step || e.State.OptStep != ref.State.OptStep {
				t.Fatalf("final state counters %+v vs %+v", e.State, ref.State)
			}
			if c.prec == BF16 && e.State.LossScale != ref.State.LossScale {
				t.Fatalf("loss scale diverged: %v vs %v", e.State.LossScale, ref.State.LossScale)
			}
			gotP := packedParams(e.Model)
			wantP := packedParams(ref.Model)
			if !bitsEqual(gotP, wantP) {
				t.Fatal("final parameters differ from the uninterrupted reference")
			}
		})
	}
}

// TestElasticNoFailure: with nothing armed the driver is a transparent
// wrapper — one leg, no restarts, checkpoints still taken.
func TestElasticNoFailure(t *testing.T) {
	base := tinyDistConfig(2, fsdp.DefaultDDP())
	base.Epochs = 3
	e, err := PretrainElastic(ElasticConfig{DistConfig: base}, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	if e.Failures != 0 || len(e.Worlds) != 1 || e.Worlds[0] != 2 {
		t.Fatalf("failures %d worlds %v", e.Failures, e.Worlds)
	}
	if e.Checkpoints != 2 { // epochs 1 and 2; epoch 3 is the final state
		t.Fatalf("%d checkpoints, want 2", e.Checkpoints)
	}
	if e.State == nil || e.State.Epoch != 3 {
		t.Fatalf("final state %+v", e.State)
	}
}

// TestElasticFailBeforeCheckpoint: a death before the first checkpoint
// is unrecoverable and surfaces the injected fault.
func TestElasticFailBeforeCheckpoint(t *testing.T) {
	base := tinyDistConfig(2, fsdp.DefaultDDP())
	base.Epochs = 3
	ecfg := ElasticConfig{DistConfig: base, ShrinkTo: 2}
	ecfg.Fault = dist.FaultPlan{Rank: 0, Call: 2}
	_, err := PretrainElastic(ecfg, tinyDataset(32))
	if err == nil {
		t.Fatal("unrecoverable death reported success")
	}
}

// TestElasticMaxRestarts: the driver gives up after MaxRestarts
// failures rather than looping forever. A second fault cannot re-fire
// (it is disarmed on restart), so this drives the exhaustion path with
// a kill before any shrink is possible at the smaller world.
func TestElasticMaxRestarts(t *testing.T) {
	base := tinyDistConfig(2, fsdp.DefaultDDP())
	base.Epochs = 4

	// Probe one epoch's collective count to aim the kill at epoch 2,
	// after the first checkpoint exists.
	probe := base
	probe.Epochs = 1
	calls := mustPretrainDistributed(t, probe, 32).CollectiveCalls
	ecfg := ElasticConfig{DistConfig: base, MaxRestarts: 1}
	ecfg.CheckpointEvery = 1
	ecfg.Fault = dist.FaultPlan{Rank: 0, Call: calls + calls/2}
	e, err := PretrainElastic(ecfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	if e.Failures != 1 || len(e.Worlds) != 2 || e.Worlds[1] != 2 {
		t.Fatalf("failures %d worlds %v, want one absorbed restart in place", e.Failures, e.Worlds)
	}
}

// packedParams flattens a model's parameters for bitwise comparison.
func packedParams(m *mae.Model) []float32 {
	params := m.Params()
	buf := make([]float32, opt.FlatDim(params))
	opt.PackValues(buf, params)
	return buf
}
