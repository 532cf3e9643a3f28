package experiments

import (
	"fmt"

	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/trace"
	"repro/internal/vit"
)

// Fig1Nodes / Fig3Nodes are the node counts of the paper's weak-scaling
// sweeps.
var (
	Fig1Nodes = []int{1, 2, 4, 8, 16, 32, 64}
	Fig3Nodes = []int{1, 2, 4, 8, 16, 32, 64}
)

// fig1Model is the Figure 1 pretraining configuration: ViT-3B at the
// paper's 512×512 pretraining resolution (patch 16 keeps the grid
// integral; the paper's 14-pixel patches do not divide 512).
func fig1Model() vit.Config {
	cfg := vit.ViT3B
	cfg.ImageSize = 512
	cfg.PatchSize = 16
	return cfg
}

// TableIExperiment regenerates Table I: the six ViT variants with our
// exact parameter counts alongside the paper's printed values.
func TableIExperiment() Table {
	t := Table{
		Title:  "Table I — ViT model architectures",
		Header: []string{"Model", "Width", "Depth", "MLP", "Heads", "Params[M] (ours)", "Params[M] (paper)"},
	}
	for _, cfg := range vit.TableI {
		t.AddRow(cfg.Name,
			fmt.Sprint(cfg.Width), fmt.Sprint(cfg.Depth), fmt.Sprint(cfg.MLP), fmt.Sprint(cfg.Heads),
			f0(float64(cfg.EncoderParams())/1e6),
			f0(vit.PaperParamsM[cfg.Name]))
	}
	t.AddNote("ViT-5B as printed (5349M) is not reachable from its own width/depth/MLP " +
		"under standard ViT algebra (≈3802M); all other rows agree to <2%%.")
	return t
}

// TableIIExperiment regenerates Table II: the paper's dataset inventory
// next to the procedural analogs at the given scale divisor.
func TableIIExperiment(scale, imageSize, channels int, seed uint64) Table {
	suite := geodata.NewSuite(scale, imageSize, channels, seed)
	t := Table{
		Title: "Table II — datasets (paper vs procedural analogs)",
		Header: []string{"Dataset", "Train (paper)", "Test (paper)", "Classes",
			fmt.Sprintf("Train (analog /%d)", scale), "Test (analog)"},
	}
	analog := map[string][2]int{
		"MillionAID-pretrain": {suite.Pretrain.TrainCount, 0},
	}
	for _, d := range suite.Probe {
		analog[d.Name] = [2]int{d.TrainCount, d.TestCount}
	}
	for _, row := range geodata.PaperTableII {
		a := analog[row.Name]
		test := "-"
		aTest := "-"
		if !row.PretrainOnly {
			test = fmt.Sprint(row.TestSamples)
			aTest = fmt.Sprint(a[1])
		}
		t.AddRow(row.Name, fmt.Sprint(row.TrainSamples), test, fmt.Sprint(row.Classes),
			fmt.Sprint(a[0]), aTest)
	}
	return t
}

// Fig1Experiment regenerates Figure 1: weak scaling of MAE-3B
// pretraining with the real / syn / syn-no-comm / IO / ideal series.
// prec selects the numeric profile of the simulated training (the zero
// value defaults to the paper's bf16 mixed precision); the IO curve is
// precision-independent, since the loader decodes fp32 pixels either
// way.
func Fig1Experiment(nodes []int, prec perfmodel.Precision) (Table, error) {
	if len(nodes) == 0 {
		nodes = Fig1Nodes
	}
	prec = normalizePrecision(prec)
	m := hw.Frontier()
	w := perfmodel.MAEWorkload(fig1Model(), 32, 0.75)
	w.Prec = prec
	io := perfmodel.DefaultIO()
	plan := fsdp.BestPractice(fsdp.NoShard, 0)

	t := Table{
		Title:  "Figure 1 — MAE ViT-3B weak scaling (images/s), NO_SHARD, local batch 32, " + precisionName(prec),
		Header: []string{"Nodes", "GPUs", "ideal", "IO", "syn_no_comm", "syn", "real", "comm gap %"},
	}
	base, err := fsdp.Simulate(w, m, 1, plan)
	if err != nil {
		return t, err
	}
	for _, n := range nodes {
		syn, err := fsdp.Simulate(w, m, n, plan)
		if err != nil {
			return t, err
		}
		// syn with its communication removed: the step is its compute.
		noComm := float64(syn.World*w.LocalBatch) / syn.ComputeTime
		ioIPS := io.ImagesPerSec(n)
		real := fsdp.RealThroughput(syn, ioIPS)
		gap := 1 - syn.ImagesPerSec/noComm
		t.AddRow(fmt.Sprint(n), fmt.Sprint(m.TotalGPUs(n)),
			f0(base.ImagesPerSec*float64(n)), f0(ioIPS),
			f0(noComm), f0(syn.ImagesPerSec), f0(real), f1(100*gap))
	}
	t.AddNote("paper: IO above syn at every scale (never IO-bound); comm gap grows to ≈22%% at 64 nodes.")
	return t, nil
}

// Fig2Experiment regenerates Figure 2: ViT-5B throughput on 8 nodes for
// FULL_SHARD / SHARD_GRAD_OP / HYBRID_2GPUs × prefetch policy ×
// limit_all_gathers.
func Fig2Experiment() (Table, error) {
	m := hw.Frontier()
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	t := Table{
		Title:  "Figure 2 — ViT-5B images/s on 8 nodes by FSDP configuration",
		Header: []string{"Strategy", "Prefetch", "limit_all_gathers", "images/s"},
	}
	strategies := []fsdp.Plan{
		{Strategy: fsdp.FullShard},
		{Strategy: fsdp.ShardGradOp},
		{Strategy: fsdp.HybridShard, GroupSize: 2},
	}
	for _, s := range strategies {
		for _, pf := range []fsdp.Prefetch{fsdp.PrefetchNone, fsdp.BackwardPost, fsdp.BackwardPre} {
			for _, limit := range []bool{false, true} {
				p := s
				p.Prefetch = pf
				p.LimitAllGathers = limit
				r, err := fsdp.Simulate(w, m, 8, p)
				if err != nil {
					return t, err
				}
				t.AddRow(p.Name(), pf.String(), fmt.Sprint(limit), f0(r.ImagesPerSec))
			}
		}
	}
	t.AddNote("paper: BACKWARD_PRE and limit_all_gathers give the best throughput; margins are small.")
	return t, nil
}

// fig3Strategies are the Figure 3 configurations for single-GPU models.
func fig3Strategies() []fsdp.Plan {
	return []fsdp.Plan{
		fsdp.DefaultDDP(),
		fsdp.BestPractice(fsdp.NoShard, 0),
		fsdp.BestPractice(fsdp.HybridShard, 1),
		fsdp.BestPractice(fsdp.HybridShard, 2),
		fsdp.BestPractice(fsdp.FullShard, 0),
	}
}

// Fig3Experiment regenerates Figure 3: weak scaling and memory of
// ViT-Base/Huge/1B/3B under DDP, NO_SHARD, HYBRID_1GPU, HYBRID_2GPUs,
// FULL_SHARD. prec selects the numeric profile (zero = the paper's
// bf16 mixed precision; DDP still reduces master-width gradients, per
// Precision.GradReduceBytes).
func Fig3Experiment(nodes []int, prec perfmodel.Precision) (Table, error) {
	if len(nodes) == 0 {
		nodes = Fig3Nodes
	}
	prec = normalizePrecision(prec)
	m := hw.Frontier()
	t := Table{
		Title:  "Figure 3 — weak scaling (images/s) and per-GPU memory (GB), local batch 32, " + precisionName(prec),
		Header: []string{"Model", "Strategy", "Mem GB"},
	}
	for _, n := range nodes {
		t.Header = append(t.Header, fmt.Sprintf("n=%d", n))
	}
	for _, cfg := range []vit.Config{vit.ViTBase, vit.ViTHuge, vit.ViT1B, vit.ViT3B} {
		w := perfmodel.ViTWorkload(cfg, 32)
		w.Prec = prec
		for _, plan := range fig3Strategies() {
			row := []string{cfg.Name, plan.Name(), ""}
			var mem float64
			for i, n := range nodes {
				r, err := fsdp.Simulate(w, m, n, plan)
				if err != nil {
					return t, err
				}
				row = append(row, f0(r.ImagesPerSec))
				if i == len(nodes)-1 {
					mem = r.MemoryPerGPU
				}
			}
			row[2] = gb(mem)
			t.AddRow(row...)
		}
	}
	t.AddNote("memory column is at the largest node count (FULL_SHARD memory shrinks with world size; others constant).")
	return t, nil
}

// Fig4Experiment regenerates Figure 4's throughput/memory panels for
// ViT-5B and ViT-15B, which do not fit on a single GPU. prec selects
// the numeric profile (zero = the paper's bf16 mixed precision).
func Fig4Experiment(nodes []int, prec perfmodel.Precision) (Table, error) {
	if len(nodes) == 0 {
		nodes = []int{4, 8, 16, 32, 64}
	}
	prec = normalizePrecision(prec)
	m := hw.Frontier()
	t := Table{
		Title:  "Figure 4 — ViT-5B and ViT-15B weak scaling (images/s) and per-GPU memory (GB), " + precisionName(prec),
		Header: []string{"Model", "Strategy", "Mem GB"},
	}
	for _, n := range nodes {
		t.Header = append(t.Header, fmt.Sprintf("n=%d", n))
	}
	type modelPlans struct {
		cfg   vit.Config
		ckpt  bool
		plans []fsdp.Plan
	}
	cases := []modelPlans{
		{cfg: vit.ViT5B, plans: []fsdp.Plan{
			fsdp.BestPractice(fsdp.HybridShard, 2),
			fsdp.BestPractice(fsdp.HybridShard, 4),
			fsdp.BestPractice(fsdp.HybridShard, 8),
			fsdp.BestPractice(fsdp.HybridShard, 16),
			fsdp.BestPractice(fsdp.FullShard, 0),
			fsdp.BestPractice(fsdp.ShardGradOp, 0),
		}},
		{cfg: vit.ViT15B, ckpt: true, plans: []fsdp.Plan{
			fsdp.BestPractice(fsdp.HybridShard, 4),
			fsdp.BestPractice(fsdp.HybridShard, 8),
			fsdp.BestPractice(fsdp.HybridShard, 16),
			fsdp.BestPractice(fsdp.FullShard, 0),
			fsdp.BestPractice(fsdp.ShardGradOp, 0),
		}},
	}
	for _, c := range cases {
		w := perfmodel.ViTWorkload(c.cfg, 32)
		w.Prec = prec
		w.ActCheckpoint = c.ckpt
		for _, plan := range c.plans {
			row := []string{c.cfg.Name, plan.Name(), ""}
			var mem float64
			for i, n := range nodes {
				r, err := fsdp.Simulate(w, m, n, plan)
				if err != nil {
					return t, err
				}
				cell := f0(r.ImagesPerSec)
				if !r.Fits {
					cell = "OOM"
				}
				row = append(row, cell)
				if i == len(nodes)-1 {
					mem = r.MemoryPerGPU
				}
			}
			row[2] = gb(mem)
			t.AddRow(row...)
		}
	}
	t.AddNote("ViT-15B runs with activation checkpointing (required to fit 4 GPUs), as on the real system.")
	return t, nil
}

// Fig4TraceExperiment regenerates the bottom panel of Figure 4: the
// rocm-smi power/memory/utilization traces for ViT-5B at 32 nodes under
// the three sharding strategies.
func Fig4TraceExperiment() ([]trace.Trace, Table, error) {
	m := hw.Frontier()
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	t := Table{
		Title:  "Figure 4 (bottom) — ViT-5B GPU telemetry at 32 nodes (rocm-smi model)",
		Header: []string{"Strategy", "images/s", "mean power W", "mean util %", "mem GB"},
	}
	var traces []trace.Trace
	for _, plan := range []fsdp.Plan{
		fsdp.BestPractice(fsdp.HybridShard, 2),
		fsdp.BestPractice(fsdp.FullShard, 0),
		fsdp.BestPractice(fsdp.ShardGradOp, 0),
	} {
		r, err := fsdp.Simulate(w, m, 32, plan)
		if err != nil {
			return nil, t, err
		}
		tr := trace.FromResult(r, m)
		traces = append(traces, tr)
		t.AddRow(plan.Name(), f0(r.ImagesPerSec), f1(tr.MeanPower()), f1(tr.MeanUtil()), gb(r.MemoryPerGPU))
	}
	t.AddNote("paper: utilization ≈100%%; SHARD_GRAD_OP draws more power than FULL_SHARD, consistent with throughput.")
	return traces, t, nil
}

// MinGPUTable summarizes the minimum-GPUs-to-fit statement of Sections
// III-C and IV-D (3B on one GCD, 5B on two, 15B on four).
func MinGPUTable() Table {
	m := hw.Frontier()
	t := Table{
		Title:  "Model footprint — minimum GCDs to fit (local batch 32)",
		Header: []string{"Model", "Params[M]", "MinGPUs (ours)", "Paper"},
	}
	paper := map[string]string{"ViT-3B": "1", "ViT-5B": "2", "ViT-15B": "4"}
	for _, cfg := range []vit.Config{vit.ViT3B, vit.ViT5B, vit.ViT15B} {
		w := perfmodel.ViTWorkload(cfg, 32)
		if cfg.Name == "ViT-15B" {
			w.ActCheckpoint = true
		}
		t.AddRow(cfg.Name, f0(float64(cfg.EncoderParams())/1e6),
			fmt.Sprint(fsdp.MinGPUs(w, m)), paper[cfg.Name])
	}
	return t
}

// normalizePrecision applies the paper's default (bf16 mixed
// precision) to a zero-valued Precision, so existing callers keep the
// published tables while cmd/repro can thread
// -precision fp32 through for the what-if sweep.
func normalizePrecision(p perfmodel.Precision) perfmodel.Precision {
	if p == (perfmodel.Precision{}) {
		return perfmodel.MixedPrecision()
	}
	return p
}

// precisionName labels a numeric profile in table titles.
func precisionName(p perfmodel.Precision) string {
	switch p {
	case perfmodel.MixedPrecision():
		return "bf16"
	case perfmodel.FP32Precision():
		return "fp32"
	default:
		return fmt.Sprintf("%.0fB/elem", p.ComputeBytes)
	}
}
