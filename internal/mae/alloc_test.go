package mae

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/rng"
	"repro/internal/vit"
)

// stepAlloc returns the bytes allocated on the heap by one
// ForwardWithMask + BackwardStep of m.
func stepAlloc(m *Model, imgs []float32, batch int, keep [][]int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.ForwardWithMask(imgs, batch, keep)
	m.BackwardStep()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// raceBuild reports whether the test binary was built with -race,
// under which sync.Pool (tensor's pack pools) drops objects on purpose.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestStepAllocation bounds what a training step allocates at the
// end-to-end benchmark's pretrain_compute shape (ViT-3B analog,
// 64-pixel images in 4-pixel patches, batch 16).
//
// The first step allocates the model's recording arena — the 97.4 MiB
// footprint TestStepActivationBytes pins — and little else: 98.2 MiB
// on a 2-core x86-64 host, 101.2 MiB at GOMAXPROCS 32, whose pack pools
// hold more buffers. The 110 MiB bound fails a step in which each block
// takes its own backward transients instead of sharing the one pair at
// the arena's top (113 MiB).
//
// A steady-state step reuses all of that; what is left is the closures
// the parallel kernels hand the worker pool (53 KiB). The 128 KiB
// bound fails a step that makes its scatter buffers or mask lists
// afresh (890 KiB).
func TestStepAllocation(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("four steps at the benchmark's shape, allocation counts without -race")
	}
	enc, err := vit.Analog("ViT-3B", 64, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(enc)
	const batch = 16
	m := New(cfg, rng.New(1))
	imgs := randImgs(cfg, batch, 2)
	keep := m.DrawMasks(batch)

	const kib, mib = 1 << 10, 1 << 20
	first := stepAlloc(m, imgs, batch, keep)
	// tensor's pack pools fill one worker at a time over the first few
	// steps at high worker counts, so the steady state is the least of
	// three.
	steady := stepAlloc(m, imgs, batch, keep)
	for i := 0; i < 2; i++ {
		steady = min(steady, stepAlloc(m, imgs, batch, keep))
	}
	t.Logf("first step %.1f MiB, steady-state step %.1f KiB", float64(first)/mib, float64(steady)/kib)
	if first > 110*mib {
		t.Errorf("first step allocated %.1f MiB, want ≤ 110 MiB", float64(first)/mib)
	}
	if steady > 128*kib {
		t.Errorf("steady-state step allocated %.1f KiB, want ≤ 128 KiB", float64(steady)/kib)
	}
}
