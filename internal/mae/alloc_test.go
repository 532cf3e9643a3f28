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
// The first step allocates the model's recording arena — the 49.96 MiB
// footprint TestStepActivationBytes pins — and little else: 51.6–51.9
// MiB on a 2-core x86-64 host; the pack pools of a GOMAXPROCS 32 host
// held 3 MiB more. The 56 MiB bound fails a backward that takes each
// gradient passed between units its own scratch slot (dFull, dNormed,
// dDec, dVisible, dEnc, dVis) instead of passing them through the two
// buffers g0 and g1 (56.2 MiB), a step that embeds every patch and
// scatters the visible rows' gradient into a zero-filled full grid as
// well (58.8 MiB), and so, by more, a step in which each block takes
// its own backward transients instead of sharing the one pair at the
// scratch top (74.0 MiB with the full-grid embedding) or whose blocks
// keep what their backward does not read (98.2 MiB, likewise, as every
// block did before the arena had a scratch stack).
//
// A steady-state step reuses all of that; what is left is the closures
// the parallel kernels hand the worker pool (61 KiB). The 128 KiB
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
	if first > 56*mib {
		t.Errorf("first step allocated %.1f MiB, want ≤ 56 MiB", float64(first)/mib)
	}
	if steady > 128*kib {
		t.Errorf("steady-state step allocated %.1f KiB, want ≤ 128 KiB", float64(steady)/kib)
	}
}
