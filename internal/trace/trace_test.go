package trace

import (
	"strings"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/vit"
)

func sampleResult(t *testing.T, plan fsdp.Plan) (fsdp.Result, hw.Machine) {
	t.Helper()
	m := hw.Frontier()
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	r, err := fsdp.Simulate(w, m, 32, plan)
	if err != nil {
		t.Fatal(err)
	}
	return r, m
}

func TestTraceBounds(t *testing.T) {
	r, m := sampleResult(t, fsdp.BestPractice(fsdp.HybridShard, 2))
	tr := FromResult(r, m)
	if len(tr.Samples) != 120 {
		t.Fatalf("samples=%d want 120", len(tr.Samples))
	}
	for _, s := range tr.Samples {
		if s.PowerW < m.IdlePower || s.PowerW > m.MaxPower {
			t.Fatalf("power %v outside [idle, max]", s.PowerW)
		}
		if s.UtilPct < 0 || s.UtilPct > 100 {
			t.Fatalf("util %v outside [0, 100]", s.UtilPct)
		}
		if s.MemoryBytes <= 0 || s.MemoryBytes > m.HBMBytesPerGPU {
			t.Fatalf("memory %v outside (0, HBM]", s.MemoryBytes)
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	r, m := sampleResult(t, fsdp.BestPractice(fsdp.FullShard, 0))
	a := FromResult(r, m)
	b := FromResult(r, m)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestHighUtilizationMatchesPaper(t *testing.T) {
	// Paper: "GPU utilization is approximately 100%" for synthetic runs.
	r, m := sampleResult(t, fsdp.BestPractice(fsdp.ShardGradOp, 0))
	tr := FromResult(r, m)
	if tr.MeanUtil() < 80 {
		t.Fatalf("mean util %v, want ≈100%%", tr.MeanUtil())
	}
}

func TestPowerOrderingMatchesThroughput(t *testing.T) {
	// Figure 4: SHARD_GRAD_OP draws more power than FULL_SHARD.
	rs, m := sampleResult(t, fsdp.BestPractice(fsdp.ShardGradOp, 0))
	rf, _ := sampleResult(t, fsdp.BestPractice(fsdp.FullShard, 0))
	ts := FromResult(rs, m)
	tf := FromResult(rf, m)
	if rs.ImagesPerSec > rf.ImagesPerSec && ts.MeanPower() <= tf.MeanPower() {
		t.Fatalf("power ordering: SHARD_GRAD_OP %.1f W ≤ FULL_SHARD %.1f W despite higher throughput",
			ts.MeanPower(), tf.MeanPower())
	}
}

func TestMemoryTraceMatchesModel(t *testing.T) {
	r, m := sampleResult(t, fsdp.BestPractice(fsdp.HybridShard, 2))
	tr := FromResult(r, m)
	for _, s := range tr.Samples {
		rel := s.MemoryBytes / r.MemoryPerGPU
		if rel < 0.95 || rel > 1.05 {
			t.Fatalf("trace memory %.1f GB deviates from model %.1f GB", s.MemoryBytes/1e9, r.MemoryPerGPU/1e9)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	r, m := sampleResult(t, fsdp.BestPractice(fsdp.HybridShard, 2))
	csv := FromResult(r, m).RenderCSV()
	if !strings.Contains(csv, "time_s,power_w,memory_gb,gpu_util_pct") {
		t.Fatal("missing header")
	}
	if strings.Count(csv, "\n") != 122 { // comment + header + 120 one-second rows
		t.Fatalf("unexpected line count in:\n%s", csv)
	}
}

// TestExecBreakdown pins the executed step-time decomposition: wall
// splits into compute + exposed comm, per-step means and the exposed
// fraction follow, and a negative residual clamps instead of going
// nonsensical.
func TestExecBreakdown(t *testing.T) {
	b := NewExecBreakdown("ddp/8", 4, 2.0, 0.5)
	if b.ComputeSec != 1.5 {
		t.Fatalf("compute %v, want 1.5", b.ComputeSec)
	}
	if got := b.StepSec(); got != 0.5 {
		t.Fatalf("step time %v, want 0.5", got)
	}
	if got := b.ExposedStepSec(); got != 0.125 {
		t.Fatalf("exposed/step %v, want 0.125", got)
	}
	if got := b.ExposedFrac(); got != 0.25 {
		t.Fatalf("exposed frac %v, want 0.25", got)
	}
	if s := b.String(); !strings.Contains(s, "ddp/8") || !strings.Contains(s, "exposed") {
		t.Fatalf("report %q missing label or decomposition", s)
	}
	// Degenerate inputs stay finite and clamped.
	z := NewExecBreakdown("z", 0, 0, 1)
	if z.ComputeSec != 0 || z.StepSec() != 0 || z.ExposedFrac() != 0 {
		t.Fatalf("degenerate breakdown not clamped: %+v", z)
	}
}

// TestExecBreakdownMirrorsSimulator: the executed decomposition's
// invariant matches the simulator's — exposed communication never
// exceeds the wall, and hiding communication shrinks the exposed
// fraction at constant traffic, which is the comparison bench-dist
// records for overlap on/off.
func TestExecBreakdownMirrorsSimulator(t *testing.T) {
	sync := NewExecBreakdown("overlap=off", 10, 3.0, 1.2)
	over := NewExecBreakdown("overlap=on", 10, 2.1, 0.3)
	if !(over.ExposedFrac() < sync.ExposedFrac()) {
		t.Fatal("overlapped breakdown does not show a lower exposed fraction")
	}
	for _, b := range []ExecBreakdown{sync, over} {
		if b.ExposedCommSec > b.WallSec {
			t.Fatalf("%s: exposed %v exceeds wall %v", b.Label, b.ExposedCommSec, b.WallSec)
		}
	}
}
