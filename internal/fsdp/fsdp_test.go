package fsdp

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/vit"
)

var frontier = hw.Frontier()

func mustSim(t *testing.T, w perfmodel.Workload, nodes int, plan Plan) Result {
	t.Helper()
	r, err := Simulate(w, frontier, nodes, plan)
	if err != nil {
		t.Fatalf("Simulate(%s, %d nodes): %v", plan.Name(), nodes, err)
	}
	return r
}

func TestPlanNames(t *testing.T) {
	cases := map[string]Plan{
		"DDP":           DefaultDDP(),
		"NO_SHARD":      {Strategy: NoShard},
		"FULL_SHARD":    {Strategy: FullShard},
		"SHARD_GRAD_OP": {Strategy: ShardGradOp},
		"HYBRID_1GPU":   {Strategy: HybridShard, GroupSize: 1},
		"HYBRID_2GPUs":  {Strategy: HybridShard, GroupSize: 2},
		"HYBRID_8GPUs":  {Strategy: HybridShard, GroupSize: 8},
	}
	for want, plan := range cases {
		if got := plan.Name(); got != want {
			t.Errorf("Name()=%q want %q", got, want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (Plan{Strategy: HybridShard, GroupSize: 3}).Validate(16); err == nil {
		t.Fatal("non-divisible hybrid group accepted")
	}
	if err := (Plan{Strategy: DDP}).Validate(8); err == nil {
		t.Fatal("DDP without bucket size accepted")
	}
	if err := DefaultDDP().Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := (Plan{Strategy: Strategy(99)}).Validate(8); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestPrefetchStrings(t *testing.T) {
	if PrefetchNone.String() != "None" || BackwardPost.String() != "BACKWARD_POST" ||
		BackwardPre.String() != "BACKWARD_PRE" {
		t.Fatal("prefetch names wrong")
	}
}

func TestSimulateBasicSanity(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViTBase, 32)
	r := mustSim(t, w, 1, BestPractice(NoShard, 0))
	if r.StepTime <= 0 || r.ImagesPerSec <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	if r.World != 8 {
		t.Fatalf("world=%d", r.World)
	}
	if r.ComputeTime <= 0 || r.CommTime <= 0 {
		t.Fatal("missing compute or comm time")
	}
	if r.StepTime < r.ComputeTime {
		t.Fatal("step faster than its own compute")
	}
}

func TestWeakScalingEfficiencyBelowIdeal(t *testing.T) {
	// ips must grow with nodes but below linear (communication).
	w := perfmodel.ViTWorkload(vit.ViT3B, 32)
	plan := BestPractice(HybridShard, 1)
	prev := 0.0
	base := mustSim(t, w, 1, plan).ImagesPerSec
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		r := mustSim(t, w, n, plan)
		if r.ImagesPerSec <= prev {
			t.Fatalf("throughput not increasing at %d nodes", n)
		}
		if r.ImagesPerSec > base*float64(n)+1e-9 {
			t.Fatalf("super-linear scaling at %d nodes", n)
		}
		prev = r.ImagesPerSec
	}
}

// TestFig3Ordering asserts the central Figure 3 claims: HYBRID_1GPU ≥
// NO_SHARD > DDP at scale, and FULL_SHARD slowest at scale for models
// that fit on one GPU.
func TestFig3Ordering(t *testing.T) {
	for _, cfg := range []vit.Config{vit.ViTBase, vit.ViT3B} {
		w := perfmodel.ViTWorkload(cfg, 32)
		const nodes = 64
		h1 := mustSim(t, w, nodes, BestPractice(HybridShard, 1))
		ns := mustSim(t, w, nodes, BestPractice(NoShard, 0))
		dp := mustSim(t, w, nodes, DefaultDDP())
		fs := mustSim(t, w, nodes, BestPractice(FullShard, 0))
		if !(h1.ImagesPerSec >= ns.ImagesPerSec) {
			t.Errorf("%s: HYBRID_1GPU (%0.0f) < NO_SHARD (%0.0f)", cfg.Name, h1.ImagesPerSec, ns.ImagesPerSec)
		}
		if !(h1.ImagesPerSec > dp.ImagesPerSec) {
			t.Errorf("%s: HYBRID_1GPU (%0.0f) ≤ DDP (%0.0f)", cfg.Name, h1.ImagesPerSec, dp.ImagesPerSec)
		}
		// NO_SHARD beats DDP clearly at 3B; at ViT-Base the paper's
		// margin is small — require at least near-parity there.
		if cfg.Name == "ViT-3B" {
			if !(ns.ImagesPerSec > dp.ImagesPerSec) {
				t.Errorf("%s: NO_SHARD (%0.0f) ≤ DDP (%0.0f)", cfg.Name, ns.ImagesPerSec, dp.ImagesPerSec)
			}
		} else if ns.ImagesPerSec < 0.9*dp.ImagesPerSec {
			t.Errorf("%s: NO_SHARD (%0.0f) far below DDP (%0.0f)", cfg.Name, ns.ImagesPerSec, dp.ImagesPerSec)
		}
		if !(h1.ImagesPerSec > fs.ImagesPerSec) {
			t.Errorf("%s: FULL_SHARD (%0.0f) not slowest at scale vs HYBRID_1GPU (%0.0f)",
				cfg.Name, fs.ImagesPerSec, h1.ImagesPerSec)
		}
	}
}

// TestDDPGapGrowsWithModelSize: the FSDP-over-DDP advantage must grow
// from ViT-Base to ViT-3B (Figure 3's key observation), measured
// against the best FSDP data-parallel mode (HYBRID_1GPU).
func TestDDPGapGrowsWithModelSize(t *testing.T) {
	gap := func(cfg vit.Config) float64 {
		w := perfmodel.ViTWorkload(cfg, 32)
		h1 := mustSim(t, w, 64, BestPractice(HybridShard, 1))
		dp := mustSim(t, w, 64, DefaultDDP())
		return h1.ImagesPerSec / dp.ImagesPerSec
	}
	if gB, g3 := gap(vit.ViTBase), gap(vit.ViT3B); g3 <= gB {
		t.Fatalf("DDP gap did not grow with model size: base ×%.3f, 3B ×%.3f", gB, g3)
	}
}

// TestFullShardFlattensEarlierForSmallModels: weak-scaling efficiency
// under FULL_SHARD must be worse for ViT-Base than ViT-3B at 64 nodes
// (smaller compute → communication-bound sooner).
func TestFullShardFlattensEarlierForSmallModels(t *testing.T) {
	eff := func(cfg vit.Config) float64 {
		w := perfmodel.ViTWorkload(cfg, 32)
		one := mustSim(t, w, 1, BestPractice(FullShard, 0))
		big := mustSim(t, w, 64, BestPractice(FullShard, 0))
		return big.ImagesPerSec / (one.ImagesPerSec * 64)
	}
	effBase, eff3B := eff(vit.ViTBase), eff(vit.ViT3B)
	if effBase >= eff3B {
		t.Fatalf("FULL_SHARD efficiency: base %.3f should be worse than 3B %.3f", effBase, eff3B)
	}
}

// TestFig4HybridGroupSize: for ViT-5B at scale, larger sharding groups
// must beat smaller ones (HYBRID_8GPUs > HYBRID_2GPUs), because the
// inter-node gradient all-reduce volume shrinks with group size.
func TestFig4HybridGroupSize(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	const nodes = 32
	h2 := mustSim(t, w, nodes, BestPractice(HybridShard, 2))
	h8 := mustSim(t, w, nodes, BestPractice(HybridShard, 8))
	if !(h8.ImagesPerSec > h2.ImagesPerSec) {
		t.Fatalf("HYBRID_8GPUs (%0.0f ips) not faster than HYBRID_2GPUs (%0.0f ips) for ViT-5B",
			h8.ImagesPerSec, h2.ImagesPerSec)
	}
}

// TestFig4ShardGradOpScalesBestFor15B: SHARD_GRAD_OP must beat
// FULL_SHARD for ViT-15B at scale (half the gather traffic).
func TestFig4ShardGradOpScalesBestFor15B(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT15B, 32)
	w.ActCheckpoint = true
	const nodes = 64
	sg := mustSim(t, w, nodes, BestPractice(ShardGradOp, 0))
	fs := mustSim(t, w, nodes, BestPractice(FullShard, 0))
	if !(sg.ImagesPerSec > fs.ImagesPerSec) {
		t.Fatalf("SHARD_GRAD_OP (%0.0f) not faster than FULL_SHARD (%0.0f) for 15B",
			sg.ImagesPerSec, fs.ImagesPerSec)
	}
}

// TestFig2PrefetchOrdering: BACKWARD_PRE ≥ BACKWARD_POST ≥ None for
// sharded strategies, with small margins (paper: "differences are not
// very big").
func TestFig2PrefetchOrdering(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	const nodes = 8
	for _, s := range []Plan{
		{Strategy: FullShard, LimitAllGathers: true},
		{Strategy: ShardGradOp, LimitAllGathers: true},
		{Strategy: HybridShard, GroupSize: 2, LimitAllGathers: true},
	} {
		ips := map[Prefetch]float64{}
		for _, pf := range []Prefetch{PrefetchNone, BackwardPost, BackwardPre} {
			p := s
			p.Prefetch = pf
			ips[pf] = mustSim(t, w, nodes, p).ImagesPerSec
		}
		if !(ips[BackwardPre] >= ips[BackwardPost] && ips[BackwardPost] >= ips[PrefetchNone]) {
			t.Errorf("%s: prefetch ordering violated: pre=%0.0f post=%0.0f none=%0.0f",
				s.Name(), ips[BackwardPre], ips[BackwardPost], ips[PrefetchNone])
		}
	}
}

// TestFig2LimitAllGathersHelps: enabling the rate limiter must not
// hurt, and must help sharded strategies.
func TestFig2LimitAllGathersHelps(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	for _, s := range []Plan{
		{Strategy: FullShard, Prefetch: BackwardPre},
		{Strategy: HybridShard, GroupSize: 2, Prefetch: BackwardPre},
	} {
		off := s
		off.LimitAllGathers = false
		on := s
		on.LimitAllGathers = true
		roff := mustSim(t, w, 8, off)
		ron := mustSim(t, w, 8, on)
		if ron.ImagesPerSec < roff.ImagesPerSec {
			t.Errorf("%s: limit_all_gathers hurt: on=%0.0f off=%0.0f", s.Name(), ron.ImagesPerSec, roff.ImagesPerSec)
		}
	}
}

// --- Memory model -----------------------------------------------------

func TestMemoryAnchors(t *testing.T) {
	// Paper anchors: ViT-3B is the largest single-GPU model (>60 GB);
	// ViT-5B needs 2 GPUs; ViT-15B needs 4 GPUs.
	w3 := perfmodel.ViTWorkload(vit.ViT3B, 32)
	m3 := MemoryPerGPU(w3, frontier, 1, BestPractice(HybridShard, 1))
	if m3 < 60e9 || m3 > frontier.HBMBytesPerGPU {
		t.Fatalf("ViT-3B unsharded memory %0.1f GB, want in (60, 64]", m3/1e9)
	}
	if g := MinGPUs(w3, frontier); g != 1 {
		t.Fatalf("ViT-3B MinGPUs=%d want 1", g)
	}

	w5 := perfmodel.ViTWorkload(vit.ViT5B, 32)
	if g := MinGPUs(w5, frontier); g != 2 {
		t.Fatalf("ViT-5B MinGPUs=%d want 2", g)
	}

	w15 := perfmodel.ViTWorkload(vit.ViT15B, 32)
	w15.ActCheckpoint = true
	if g := MinGPUs(w15, frontier); g != 4 {
		t.Fatalf("ViT-15B MinGPUs=%d want 4", g)
	}
}

func TestMemoryFullShardDropsWithWorld(t *testing.T) {
	// FULL_SHARD's parameter-state component shards over the world, so
	// per-GPU memory falls monotonically toward the activation floor.
	w := perfmodel.ViTWorkload(vit.ViT3B, 32)
	plan := BestPractice(FullShard, 0)
	prev := MemoryPerGPU(w, frontier, 1, plan)
	for _, n := range []int{2, 4, 16, 64} {
		cur := MemoryPerGPU(w, frontier, n, plan)
		if cur >= prev {
			t.Fatalf("FULL_SHARD memory not decreasing at %d nodes: %0.1f → %0.1f GB", n, prev/1e9, cur/1e9)
		}
		prev = cur
	}
	m1 := MemoryPerGPU(w, frontier, 1, plan)
	m64 := MemoryPerGPU(w, frontier, 64, plan)
	if !(m64 < 0.8*m1) {
		t.Fatalf("FULL_SHARD memory drop too small: %0.1f → %0.1f GB", m1/1e9, m64/1e9)
	}
	// Constant-memory strategies must not depend on node count.
	for _, p := range []Plan{BestPractice(NoShard, 0), BestPractice(HybridShard, 2), DefaultDDP()} {
		a := MemoryPerGPU(w, frontier, 1, p)
		b := MemoryPerGPU(w, frontier, 64, p)
		if a != b {
			t.Fatalf("%s memory varies with nodes: %v vs %v", p.Name(), a, b)
		}
	}
}

func TestMemoryHybridHalves(t *testing.T) {
	// Paper: HYBRID_2GPUs roughly halves ViT-3B's per-GPU memory.
	w := perfmodel.ViTWorkload(vit.ViT3B, 32)
	m1 := MemoryPerGPU(w, frontier, 1, BestPractice(HybridShard, 1))
	m2 := MemoryPerGPU(w, frontier, 1, BestPractice(HybridShard, 2))
	ratio := m2 / m1
	if ratio > 0.75 || ratio < 0.4 {
		t.Fatalf("HYBRID_2GPUs memory ratio %0.2f, want ≈0.5–0.75", ratio)
	}
}

func TestMemoryShardGradOpBetweenFullAndNoShard(t *testing.T) {
	// Figure 4: SHARD_GRAD_OP footprint much larger than FULL_SHARD but
	// far below unsharded.
	w := perfmodel.ViTWorkload(vit.ViT15B, 32)
	w.ActCheckpoint = true
	const nodes = 16
	full := MemoryPerGPU(w, frontier, nodes, BestPractice(FullShard, 0))
	gradOp := MemoryPerGPU(w, frontier, nodes, BestPractice(ShardGradOp, 0))
	noShard := MemoryPerGPU(w, frontier, nodes, BestPractice(NoShard, 0))
	if !(full < gradOp && gradOp < noShard) {
		t.Fatalf("memory ordering violated: full=%0.1f gradOp=%0.1f noShard=%0.1f GB",
			full/1e9, gradOp/1e9, noShard/1e9)
	}
}

// --- Power / utilization ----------------------------------------------

func TestPowerAndUtilizationRanges(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	for _, p := range []Plan{
		BestPractice(HybridShard, 2),
		BestPractice(FullShard, 0),
		BestPractice(ShardGradOp, 0),
	} {
		r := mustSim(t, w, 32, p)
		if r.AvgPowerPerGPU < frontier.IdlePower || r.AvgPowerPerGPU > frontier.MaxPower {
			t.Errorf("%s: power %v outside [idle, max]", p.Name(), r.AvgPowerPerGPU)
		}
		if r.GPUUtilization <= 0.5 || r.GPUUtilization > 1 {
			t.Errorf("%s: utilization %v implausible (paper reports ≈100%%)", p.Name(), r.GPUUtilization)
		}
	}
}

// TestFig4PowerOrdering: SHARD_GRAD_OP draws more power than
// FULL_SHARD (consistent with its higher throughput), per Figure 4's
// rocm-smi trace discussion.
func TestFig4PowerOrdering(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	sg := mustSim(t, w, 32, BestPractice(ShardGradOp, 0))
	fs := mustSim(t, w, 32, BestPractice(FullShard, 0))
	if sg.ImagesPerSec > fs.ImagesPerSec && sg.AvgPowerPerGPU <= fs.AvgPowerPerGPU {
		t.Fatalf("throughput and power disagree: SHARD_GRAD_OP %0.0f ips / %0.0f W vs FULL_SHARD %0.0f ips / %0.0f W",
			sg.ImagesPerSec, sg.AvgPowerPerGPU, fs.ImagesPerSec, fs.AvgPowerPerGPU)
	}
}

// --- Fig 1 components ---------------------------------------------------

// fig1Config is the Figure 1 pretraining workload: ViT-3B at the
// paper's 512×512 pretraining resolution (patch 16 so the grid is
// integral), 75% masked.
func fig1Config() vit.Config {
	cfg := vit.ViT3B
	cfg.ImageSize = 512
	cfg.PatchSize = 16
	return cfg
}

func TestFig1CommGapGrowsWithScale(t *testing.T) {
	// (syn_no_comm − syn)/syn_no_comm must grow with node count and land
	// near ~20% at 64 nodes for the MAE-3B workload.
	w := perfmodel.MAEWorkload(fig1Config(), 32, 0.75)
	plan := BestPractice(NoShard, 0)
	gapAt := func(nodes int) float64 {
		syn := mustSim(t, w, nodes, plan)
		return 1 - syn.ImagesPerSec/noCommImagesPerSec(w, syn)
	}
	g1, g64 := gapAt(1), gapAt(64)
	if !(g64 > g1) {
		t.Fatalf("comm gap did not grow: %0.3f → %0.3f", g1, g64)
	}
	if g64 < 0.10 || g64 > 0.35 {
		t.Fatalf("64-node comm gap %0.3f, want ≈0.22±0.12", g64)
	}
}

func TestFig1NeverIOBound(t *testing.T) {
	w := perfmodel.MAEWorkload(fig1Config(), 32, 0.75)
	io := perfmodel.DefaultIO()
	plan := BestPractice(NoShard, 0)
	for _, n := range []int{1, 4, 16, 64} {
		syn := mustSim(t, w, n, plan)
		ioIPS := io.ImagesPerSec(n)
		if ioIPS <= syn.ImagesPerSec {
			t.Fatalf("IO-bound at %d nodes: io=%0.0f syn=%0.0f", n, ioIPS, syn.ImagesPerSec)
		}
		real := RealThroughput(syn, ioIPS)
		if real > syn.ImagesPerSec || real <= 0 {
			t.Fatalf("real throughput %0.0f inconsistent with syn %0.0f", real, syn.ImagesPerSec)
		}
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViTBase, 32)
	if _, err := Simulate(w, frontier, 0, BestPractice(NoShard, 0)); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := Simulate(w, frontier, 10000, BestPractice(NoShard, 0)); err == nil {
		t.Fatal("more than MaxNodes accepted")
	}
	bad := w
	bad.LocalBatch = 0
	if _, err := Simulate(bad, frontier, 1, BestPractice(NoShard, 0)); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

// TestAbsoluteThroughputCalibration: ViT-5B at 32 nodes under the best
// strategy should land within 2× of the paper's ≈1.5k images/s (we
// match shapes, not absolutes, but the magnitude should be right).
func TestAbsoluteThroughputCalibration(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	best := 0.0
	for _, p := range []Plan{
		BestPractice(HybridShard, 2),
		BestPractice(HybridShard, 8),
		BestPractice(ShardGradOp, 0),
	} {
		if r := mustSim(t, w, 32, p); r.ImagesPerSec > best {
			best = r.ImagesPerSec
		}
	}
	if best < 750 || best > 3000 {
		t.Fatalf("ViT-5B@32 best throughput %0.0f ips, want within 2× of the paper's ≈1509", best)
	}
}
