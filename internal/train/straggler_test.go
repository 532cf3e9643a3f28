package train

import (
	"math"
	"os"
	"testing"

	"repro/internal/comm"
	"repro/internal/fsdp"
)

// TestStragglerLockstepCost carries the dist-level lockstep property
// (TestThrottleSkewStraggler) through the full training loop: with one
// rank's collectives throttled ×skew on a congested link, the whole
// run's wall clock must sit at or above skew × the α–β model's total
// collective time — every peer waits for the straggler at every
// synchronous collective. time.Sleep never returns early, so that
// floor is exact and always checked, as is the loss-bit equality. That
// the unskewed baseline stays below the floor (the cost is attributable
// to the skew) races the OS scheduler: those comparisons run only under
// OVERLAP_VALIDATE=1 (CI's calibrate job).
func TestStragglerLockstepCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const ranks, skew = 4, 4.0
	run := func(skewed bool) *DistResult {
		cfg := tinyDistConfig(ranks, fsdp.DefaultDDP())
		cfg.Epochs = 1
		cfg.MaxStepsPerEpoch = 3
		cfg.Throttle = 1
		cfg.Link = comm.Params{Bandwidth: 4e6, HopLat: 1e-6, Launch: 1e-5}
		if skewed {
			cfg.ThrottleSkew = map[int]float64{ranks - 1: skew}
		}
		res, err := PretrainDistributed(cfg, tinyDataset(32))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	slow := run(true)
	modeled := modeledLoopCommSec(base.Comm)
	if modeled <= 0 {
		t.Fatal("no modeled collective time recorded")
	}
	if slow.WallSec < skew*modeled {
		t.Errorf("skewed wall %.3fs below the lockstep floor %.3fs",
			slow.WallSec, skew*modeled)
	}
	// The trajectory is timing-independent: the straggler slows the run
	// but must not change a single loss bit.
	if len(base.LossCurve.Y) != len(slow.LossCurve.Y) {
		t.Fatalf("loss curves differ in length: %d vs %d", len(base.LossCurve.Y), len(slow.LossCurve.Y))
	}
	for i := range base.LossCurve.Y {
		if math.Float64bits(base.LossCurve.Y[i]) != math.Float64bits(slow.LossCurve.Y[i]) {
			t.Fatalf("step %d: straggler changed the loss: %v vs %v", i, base.LossCurve.Y[i], slow.LossCurve.Y[i])
		}
	}
	if os.Getenv("OVERLAP_VALIDATE") == "" {
		return
	}
	if base.WallSec >= skew*modeled {
		t.Errorf("baseline wall %.3fs already at the skewed floor %.3fs — straggler cost not measurable",
			base.WallSec, skew*modeled)
	}
	if slow.WallSec <= base.WallSec {
		t.Errorf("skewed run (%.3fs) not slower than baseline (%.3fs)", slow.WallSec, base.WallSec)
	}
}
