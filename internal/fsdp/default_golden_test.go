package fsdp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/vit"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name, which -update rewrites
// from got first.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (rerun with -update if intended):\n%s", path, got)
	}
}

// TestDefaultPathGolden pins the no-profile default: with no hardware
// profile loaded, Simulate prices workloads on the asserted Frontier
// machine, and these numbers must not drift when calibration code is
// touched. The values are pure float64 arithmetic (no measurement), so
// they are exact on every platform; re-record them (-update)
// deliberately if the model itself changes, never to absorb an
// accidental diff.
func TestDefaultPathGolden(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT1B, 32)
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-15s %-15s %-15s %s\n", "plan", "step", "compute", "comm", "exposed")
	for _, plan := range []Plan{DefaultDDP(), BestPractice(ShardGradOp, 0),
		BestPractice(FullShard, 0), BestPractice(HybridShard, 4)} {
		r := mustSim(t, w, 4, plan)
		fmt.Fprintf(&b, "%-13s %.9e %.9e %.9e %.9e\n", plan.Name(), r.StepTime, r.ComputeTime, r.CommTime, r.ExposedComm)
	}
	checkGolden(t, "default_path.golden", b.String())
}

// gridPlans lists every schedule branch of Simulate: each strategy (and
// both hybrid shapes) under every prefetch policy with and without
// limit_all_gathers, plus DDP with a bucket smaller than every unit.
func gridPlans() []Plan {
	var plans []Plan
	for _, base := range []Plan{DefaultDDP(), {Strategy: NoShard}, {Strategy: FullShard},
		{Strategy: ShardGradOp}, {Strategy: HybridShard, GroupSize: 1},
		{Strategy: HybridShard, GroupSize: 2}, {Strategy: HybridShard, GroupSize: 8}} {
		for _, pf := range []Prefetch{PrefetchNone, BackwardPost, BackwardPre} {
			for _, limit := range []bool{false, true} {
				p := base
				p.Prefetch, p.LimitAllGathers = pf, limit
				plans = append(plans, p)
			}
		}
	}
	small := DefaultDDP()
	small.DDPBucketBytes = 1 << 20
	return append(plans, DefaultDDP(), small)
}

// gridWorkloads crosses two Table I models with ViT/MAE, activation
// checkpointing and both precisions.
func gridWorkloads() []perfmodel.Workload {
	var ws []perfmodel.Workload
	for _, cfg := range []vit.Config{vit.ViT1B, vit.ViT15B} {
		for _, mae := range []bool{false, true} {
			for _, ckpt := range []bool{false, true} {
				for _, prec := range []perfmodel.Precision{perfmodel.MixedPrecision(), perfmodel.FP32Precision()} {
					w := perfmodel.ViTWorkload(cfg, 32)
					if mae {
						w = perfmodel.MAEWorkload(cfg, 32, 0.75)
					}
					w.ActCheckpoint, w.Prec = ckpt, prec
					ws = append(ws, w)
				}
			}
		}
	}
	return ws
}

// TestSimulateGridFingerprint pins every bit of every Result field
// over gridWorkloads × gridPlans × {1, 2, 8, 64} nodes on the asserted
// and the Calibrated Frontier — except the 1 MiB DDP bucket, which
// runs on ViT-1B only: on ViT-15B it would issue 57k buckets a step
// and reach no new branch. A refactor of Simulate must leave the
// fingerprint unchanged; a deliberate model change re-records it
// (-update). The grid runs on every core, each result landing in its
// own slot.
func TestSimulateGridFingerprint(t *testing.T) {
	calibrated := frontier
	calibrated.Calibrated = true
	type config struct {
		w     perfmodel.Workload
		plan  Plan
		m     hw.Machine
		nodes int
	}
	var configs []config
	for _, w := range gridWorkloads() {
		for _, plan := range gridPlans() {
			for _, m := range []hw.Machine{frontier, calibrated} {
				for _, nodes := range []int{1, 2, 8, 64} {
					if plan.DDPBucketBytes < 25<<20 && w.Model.Name != vit.ViT1B.Name {
						continue
					}
					configs = append(configs, config{w, plan, m, nodes})
				}
			}
		}
	}
	results := make([]Result, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	for p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := p; k < len(configs); k += procs {
				c := configs[k]
				results[k], errs[k] = Simulate(c.w, c.m, c.nodes, c.plan)
			}
		}()
	}
	wg.Wait()
	var floats []float64
	var ints []int64
	var fits []bool
	for k, r := range results {
		if errs[k] != nil {
			t.Fatalf("%s on %d nodes: %v", configs[k].plan.Name(), configs[k].nodes, errs[k])
		}
		p := r.Plan
		floats = append(floats, p.DDPBucketBytes, r.StepTime, r.ImagesPerSec, r.ComputeTime,
			r.CommTime, r.ExposedComm, r.CommVolume, r.MemoryPerGPU, r.AvgPowerPerGPU, r.GPUUtilization)
		ints = append(ints, int64(p.Strategy), int64(p.GroupSize), int64(p.Prefetch),
			int64(r.Nodes), int64(r.World), int64(r.CommCalls))
		fits = append(fits, p.LimitAllGathers, r.Fits)
	}
	checkGolden(t, "grid_fingerprint.golden",
		fmt.Sprintf("%#x over %d results\n", golden.Fingerprint(floats, ints, fits), len(results)))
}

// TestCalibratedGateChangesPricing: flipping Calibrated on the same
// machine must actually reroute Simulate off the asserted fudge
// constants — if the gate stops gating, the calibrated path silently
// inherits Frontier's host overheads and straggler inflation.
func TestCalibratedGateChangesPricing(t *testing.T) {
	w := perfmodel.ViTWorkload(vit.ViT1B, 32)
	m := frontier
	m.Calibrated = true
	for _, plan := range []Plan{DefaultDDP(), BestPractice(FullShard, 0)} {
		def := mustSim(t, w, 4, plan)
		cal, err := Simulate(w, m, 4, plan)
		if err != nil {
			t.Fatal(err)
		}
		if cal.StepTime >= def.StepTime {
			t.Fatalf("%s: calibrated gate did not drop the asserted overheads (step %v vs %v)",
				plan.Name(), cal.StepTime, def.StepTime)
		}
		if cal.ComputeTime <= 0 || cal.CommTime <= 0 {
			t.Fatalf("%s: degenerate calibrated result %+v", plan.Name(), cal)
		}
	}
}
