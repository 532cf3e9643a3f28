package fsdp

import (
	"testing"
	"testing/quick"

	"repro/internal/perfmodel"
	"repro/internal/vit"
)

// Property-based invariants of the simulator: these must hold for any
// plan and node count, independent of calibration constants.

func anyPlan(sel, group uint8) Plan {
	groups := []int{1, 2, 4, 8, 16}
	g := groups[int(group)%len(groups)]
	switch sel % 5 {
	case 0:
		return DefaultDDP()
	case 1:
		return BestPractice(NoShard, 0)
	case 2:
		return BestPractice(FullShard, 0)
	case 3:
		return BestPractice(ShardGradOp, 0)
	default:
		return BestPractice(HybridShard, g)
	}
}

func TestPropertyThroughputMonotoneInNodes(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT1B, 32)
	f := func(sel, group uint8, nshift uint8) bool {
		plan := anyPlan(sel, group)
		n1 := 1 << (nshift % 5) // 1..16
		n2 := n1 * 2            // 2..32
		if plan.Strategy == HybridShard && plan.GroupSize > frontier.TotalGPUs(n1) {
			return true // skip invalid combos
		}
		r1, err1 := Simulate(w, frontier, n1, plan)
		r2, err2 := Simulate(w, frontier, n2, plan)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.ImagesPerSec > r1.ImagesPerSec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStepAtLeastCompute(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViTHuge, 32)
	f := func(sel, group uint8) bool {
		plan := anyPlan(sel, group)
		if plan.Strategy == HybridShard && plan.GroupSize > 16 {
			return true
		}
		r, err := Simulate(w, frontier, 4, plan)
		if err != nil {
			return false
		}
		return r.StepTime >= r.ComputeTime && r.ExposedComm >= 0 &&
			r.ExposedComm <= r.CommTime+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHybridMemoryMonotoneInGroup(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	prev := MemoryPerGPU(w, frontier, 4, BestPractice(HybridShard, 2))
	for _, g := range []int{4, 8, 16} {
		cur := MemoryPerGPU(w, frontier, 4, BestPractice(HybridShard, g))
		if cur >= prev {
			t.Fatalf("hybrid memory not decreasing at group %d: %v vs %v", g, cur, prev)
		}
		prev = cur
	}
}

func TestPropertyCommVolumeOrdering(t *testing.T) {
	// Per-step wire volume: FULL_SHARD (3 passes over params) >
	// SHARD_GRAD_OP (2 passes) > optimizer-free lower bound.
	w := perfmodel.ViTWorkload(vit.ViT1B, 32)
	full := mustSim(t, w, 8, BestPractice(FullShard, 0))
	gradOp := mustSim(t, w, 8, BestPractice(ShardGradOp, 0))
	if !(full.CommVolume > gradOp.CommVolume) {
		t.Fatalf("volume ordering violated: full=%.2e gradOp=%.2e", full.CommVolume, gradOp.CommVolume)
	}
	// And call counts: FULL_SHARD issues 3 collectives per unit,
	// SHARD_GRAD_OP 2 per unit.
	units := len(w.Units())
	if full.CommCalls != 3*units {
		t.Fatalf("FULL_SHARD calls=%d want %d", full.CommCalls, 3*units)
	}
	if gradOp.CommCalls != 2*units {
		t.Fatalf("SHARD_GRAD_OP calls=%d want %d", gradOp.CommCalls, 2*units)
	}
}

func TestPropertyDDPCallsScaleWithModel(t *testing.T) {
	// DDP bucket count grows with parameter count while FSDP's per-unit
	// count stays at the block count — the structural reason for the
	// paper's Figure 3 trend.
	small := mustSim(t, perfmodel.ViTWorkload(vit.ViTBase, 32), 8, DefaultDDP())
	large := mustSim(t, perfmodel.ViTWorkload(vit.ViT3B, 32), 8, DefaultDDP())
	if large.CommCalls <= small.CommCalls*10 {
		t.Fatalf("DDP calls: base=%d 3B=%d — expected ≳35× growth", small.CommCalls, large.CommCalls)
	}
	h1small := mustSim(t, perfmodel.ViTWorkload(vit.ViTBase, 32), 8, BestPractice(HybridShard, 1))
	h1large := mustSim(t, perfmodel.ViTWorkload(vit.ViT3B, 32), 8, BestPractice(HybridShard, 1))
	if h1large.CommCalls > 3*h1small.CommCalls {
		t.Fatalf("FSDP calls grew with params: base=%d 3B=%d", h1small.CommCalls, h1large.CommCalls)
	}
}

// noCommImagesPerSec is Figure 1's "syn no comm" throughput: the step
// priced at its compute-stream busy time alone.
func noCommImagesPerSec(w perfmodel.Workload, r Result) float64 {
	return float64(r.World*w.LocalBatch) / r.ComputeTime
}

func TestPropertyNoCommMatchesIdealScaling(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT1B, 32)
	plan := BestPractice(NoShard, 0)
	r1 := noCommImagesPerSec(w, mustSim(t, w, 1, plan))
	r8 := noCommImagesPerSec(w, mustSim(t, w, 8, plan))
	if r8 != 8*r1 {
		t.Fatalf("no-comm scaling not linear: %v vs 8×%v", r8, r1)
	}
}

func TestPropertyFitsFlagConsistent(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT15B, 32) // no checkpointing: huge
	r := mustSim(t, w, 1, BestPractice(NoShard, 0))
	if r.Fits {
		t.Fatal("unsharded 15B reported as fitting in 64 GB")
	}
	w.ActCheckpoint = true
	r2 := mustSim(t, w, 8, BestPractice(FullShard, 0))
	if !r2.Fits {
		t.Fatal("fully-sharded checkpointed 15B reported as not fitting")
	}
}

func TestPropertyStragglerOnlyAtScale(t *testing.T) {
	// Communication time per byte must not decrease as nodes grow.
	w := perfmodel.ViTWorkload(vit.ViT1B, 32)
	plan := BestPractice(HybridShard, 1)
	prev := 0.0
	for _, n := range []int{2, 8, 32} {
		r := mustSim(t, w, n, plan)
		perByte := r.CommTime / r.CommVolume
		if perByte < prev {
			t.Fatalf("comm cost per byte decreased at %d nodes", n)
		}
		prev = perByte
	}
}
