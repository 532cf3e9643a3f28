package fsdp

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/perfmodel"
)

// TestTrafficMatchesCommModel holds TrafficPerStep to the WireBytes the
// α–β cost model accounts for the equivalent collective calls.
func TestTrafficMatchesCommModel(t *testing.T) {
	p := comm.Params{Bandwidth: 50e9}
	const elems = 1 << 20 // divisible by every world below: no padding
	bytes := float64(elems * 4)
	for _, world := range []int{2, 4, 8} {
		ddp := TrafficPerStep(DefaultDDP(), world, elems, 4)
		if want := comm.AllReduce(bytes, world, p).WireBytes; ddp.AllReduceBytes != want {
			t.Errorf("DDP world=%d: %v, comm model %v", world, ddp.AllReduceBytes, want)
		}
		if ddp.ReduceScatterBytes != 0 || ddp.AllGatherBytes != 0 {
			t.Errorf("DDP world=%d: unexpected sharded traffic %+v", world, ddp)
		}

		zero1 := TrafficPerStep(BestPractice(ShardGradOp, 0), world, elems, 4)
		if want := comm.ReduceScatter(bytes, world, p).WireBytes; zero1.ReduceScatterBytes != want {
			t.Errorf("ZeRO-1 world=%d RS: %v, comm model %v", world, zero1.ReduceScatterBytes, want)
		}
		if want := comm.AllGather(bytes, world, p).WireBytes; zero1.AllGatherBytes != want {
			t.Errorf("ZeRO-1 world=%d AG: %v, comm model %v", world, zero1.AllGatherBytes, want)
		}

		full := TrafficPerStep(BestPractice(FullShard, 0), world, elems, 4)
		if full.AllGatherBytes != 2*zero1.AllGatherBytes {
			t.Errorf("FULL_SHARD world=%d: AG %v, want twice SHARD_GRAD_OP's %v",
				world, full.AllGatherBytes, zero1.AllGatherBytes)
		}
	}
}

// TestTrafficPadding: a non-divisible parameter count is padded to the
// collective group, matching internal/dist's uniform-chunk requirement.
func TestTrafficPadding(t *testing.T) {
	const world = 4
	tr := TrafficPerStep(DefaultDDP(), world, 10, 4)
	want := 2.0 * 3 / 4 * 12 * 4 // pad 10 → 12 elems
	if tr.AllReduceBytes != want {
		t.Fatalf("padded DDP traffic %v, want %v", tr.AllReduceBytes, want)
	}
}

// TestTrafficHybrid: group collectives plus replica all-reduce.
func TestTrafficHybrid(t *testing.T) {
	plan := BestPractice(HybridShard, 4)
	const world, elems = 8, 1 << 10
	tr := TrafficPerStep(plan, world, elems, 4)
	bytes := float64(elems * 4)
	if want := 3.0 / 4 * bytes; tr.ReduceScatterBytes != want {
		t.Errorf("hybrid RS %v want %v", tr.ReduceScatterBytes, want)
	}
	if want := 2 * 3.0 / 4 * bytes; tr.AllGatherBytes != want {
		t.Errorf("hybrid AG %v want %v", tr.AllGatherBytes, want)
	}
	if want := 2 * 1.0 / 2 * bytes / 4; tr.AllReduceBytes != want {
		t.Errorf("hybrid replica AR %v want %v", tr.AllReduceBytes, want)
	}
	// HYBRID_1GPU degenerates to the DDP volume.
	h1 := TrafficPerStep(BestPractice(HybridShard, 1), world, elems, 4)
	ddp := TrafficPerStep(DefaultDDP(), world, elems, 4)
	if h1 != ddp {
		t.Errorf("HYBRID_1GPU %+v != DDP %+v", h1, ddp)
	}
}

// TestTrafficDegenerate: one rank or no params moves nothing, and a
// hybrid group larger than the world (invalid per Validate, but
// TrafficPerStep is a pure function callers may probe) stays finite
// instead of dividing by zero.
func TestTrafficDegenerate(t *testing.T) {
	if tr := TrafficPerStep(DefaultDDP(), 1, 100, 4); tr.Total() != 0 {
		t.Fatalf("world=1 traffic %v", tr.Total())
	}
	if tr := TrafficPerStep(DefaultDDP(), 8, 0, 4); tr.Total() != 0 {
		t.Fatalf("zero params traffic %v", tr.Total())
	}
	over := TrafficPerStep(BestPractice(HybridShard, 8), 4, 1<<10, 4)
	if over.AllReduceBytes != 0 || over.ReduceScatterBytes <= 0 {
		t.Fatalf("oversized hybrid group traffic %+v", over)
	}
}

// TestTrafficBF16HalvesVolume: the dtype-width parameter scales every
// per-step collective volume linearly — bf16 (2 bytes) moves exactly
// half of fp32's bytes for every strategy, and a non-positive width
// defaults to fp32.
func TestTrafficBF16HalvesVolume(t *testing.T) {
	const world, elems = 8, 12345
	for _, plan := range []Plan{
		DefaultDDP(),
		BestPractice(ShardGradOp, 0),
		BestPractice(FullShard, 0),
		BestPractice(HybridShard, 2),
	} {
		fp := TrafficPerStep(plan, world, elems, 4)
		bf := TrafficPerStep(plan, world, elems, 2)
		if 2*bf.AllReduceBytes != fp.AllReduceBytes ||
			2*bf.ReduceScatterBytes != fp.ReduceScatterBytes ||
			2*bf.AllGatherBytes != fp.AllGatherBytes {
			t.Errorf("%s: bf16 %+v is not half of fp32 %+v", plan.Name(), bf, fp)
		}
		if def := TrafficPerStep(plan, world, elems, 0); def != fp {
			t.Errorf("%s: zero width %+v does not default to fp32 %+v", plan.Name(), def, fp)
		}
	}
}

// TestTrafficTable pins TrafficPerStep to literal per-rank wire bytes
// for every plan name × world size at a parameter count no world
// divides (1003, so every padding rule shows) on both wire widths: the
// regression net under the closed-form arithmetic.
func TestTrafficTable(t *testing.T) {
	const elems = 1003
	cases := []struct {
		plan       string
		world      int
		bf16, fp32 Traffic // {all-reduce, reduce-scatter, all-gather} bytes
	}{
		{"DDP", 1, Traffic{0, 0, 0}, Traffic{0, 0, 0}},
		{"DDP", 2, Traffic{2008, 0, 0}, Traffic{4016, 0, 0}},
		{"DDP", 4, Traffic{3012, 0, 0}, Traffic{6024, 0, 0}},
		{"DDP", 8, Traffic{3528, 0, 0}, Traffic{7056, 0, 0}},
		{"NO_SHARD", 1, Traffic{0, 0, 0}, Traffic{0, 0, 0}},
		{"NO_SHARD", 2, Traffic{2008, 0, 0}, Traffic{4016, 0, 0}},
		{"NO_SHARD", 4, Traffic{3012, 0, 0}, Traffic{6024, 0, 0}},
		{"NO_SHARD", 8, Traffic{3528, 0, 0}, Traffic{7056, 0, 0}},
		{"FULL_SHARD", 1, Traffic{0, 0, 0}, Traffic{0, 0, 0}},
		{"FULL_SHARD", 2, Traffic{0, 1004, 2008}, Traffic{0, 2008, 4016}},
		{"FULL_SHARD", 4, Traffic{0, 1506, 3012}, Traffic{0, 3012, 6024}},
		{"FULL_SHARD", 8, Traffic{0, 1764, 3528}, Traffic{0, 3528, 7056}},
		{"SHARD_GRAD_OP", 1, Traffic{0, 0, 0}, Traffic{0, 0, 0}},
		{"SHARD_GRAD_OP", 2, Traffic{0, 1004, 1004}, Traffic{0, 2008, 2008}},
		{"SHARD_GRAD_OP", 4, Traffic{0, 1506, 1506}, Traffic{0, 3012, 3012}},
		{"SHARD_GRAD_OP", 8, Traffic{0, 1764, 1764}, Traffic{0, 3528, 3528}},
		{"HYBRID_1GPU", 1, Traffic{0, 0, 0}, Traffic{0, 0, 0}},
		{"HYBRID_1GPU", 2, Traffic{2008, 0, 0}, Traffic{4016, 0, 0}},
		{"HYBRID_1GPU", 4, Traffic{3012, 0, 0}, Traffic{6024, 0, 0}},
		{"HYBRID_1GPU", 8, Traffic{3528, 0, 0}, Traffic{7056, 0, 0}},
		{"HYBRID_2GPUs", 1, Traffic{0, 0, 0}, Traffic{0, 0, 0}},
		{"HYBRID_2GPUs", 2, Traffic{0, 1004, 2008}, Traffic{0, 2008, 4016}},
		{"HYBRID_2GPUs", 4, Traffic{1004, 1004, 2008}, Traffic{2008, 2008, 4016}},
		{"HYBRID_2GPUs", 8, Traffic{1512, 1008, 2016}, Traffic{3024, 2016, 4032}},
		{"HYBRID_4GPUs", 1, Traffic{0, 0, 0}, Traffic{0, 0, 0}},
		{"HYBRID_4GPUs", 2, Traffic{0, 1506, 3012}, Traffic{0, 3012, 6024}},
		{"HYBRID_4GPUs", 4, Traffic{0, 1506, 3012}, Traffic{0, 3012, 6024}},
		{"HYBRID_4GPUs", 8, Traffic{504, 1512, 3024}, Traffic{1008, 3024, 6048}},
	}
	for _, c := range cases {
		p, err := ParsePlanName(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := TrafficPerStep(p, c.world, elems, 2); got != c.bf16 {
			t.Errorf("%s world=%d bf16: %+v, want %+v", c.plan, c.world, got, c.bf16)
		}
		if got := TrafficPerStep(p, c.world, elems, 4); got != c.fp32 {
			t.Errorf("%s world=%d fp32: %+v, want %+v", c.plan, c.world, got, c.fp32)
		}
	}
}

// TestSimulateCommVolumeMatchesTraffic ties the simulator's per-unit
// accounting to the closed form the executed bytes are held to: on an
// fp32 workload, where every strategy reduces 4-byte gradients, a
// step's CommVolume is TrafficPerStep's total scaled from the padded
// to the actual parameter count.
func TestSimulateCommVolumeMatchesTraffic(t *testing.T) {
	for _, w := range gridWorkloads() {
		if w.Prec != perfmodel.FP32Precision() {
			continue
		}
		params := int(w.TotalParams())
		for _, plan := range gridPlans() {
			for _, nodes := range []int{1, 8} {
				r := mustSim(t, w, nodes, plan)
				padded := (params + r.World - 1) / r.World * r.World
				want := TrafficPerStep(plan, r.World, params, 4).Total() * float64(params) / float64(padded)
				if rel := math.Abs(r.CommVolume-want) / want; rel > 1e-12 {
					t.Errorf("%s %s on %d nodes: CommVolume %v, closed form %v (rel %.1e)",
						w.Model.Name, plan.Name(), nodes, r.CommVolume, want, rel)
				}
			}
		}
	}
}
