package train

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/geodata"
)

// ElasticConfig configures fault-tolerant pretraining: the embedded
// DistConfig describes the initial leg (its Fault plan typically armed
// to inject the failure under test), and the shrink fields describe how
// the run continues after a rank dies.
type ElasticConfig struct {
	DistConfig
	// ShrinkTo is the world size the run restarts at after a failure —
	// the N→M shrink (losing a node and continuing on the remainder).
	// 0 keeps the current world size (restart-in-place). BatchSize must
	// stay divisible by it: the global batch, schedule and mask streams
	// are world-invariant, which is what makes the shrunk continuation
	// bitwise-comparable to an uninterrupted ShrinkTo-rank run.
	ShrinkTo int
	// ShrinkPlan optionally switches the sharding strategy on restart
	// (the zero value keeps DistConfig.Plan). The checkpoint is
	// canonical flat state, so the next leg resumes it as it is under
	// whatever world and plan it runs.
	ShrinkPlan fsdp.Plan
	// MaxRestarts bounds how many failures the driver absorbs before
	// giving up (≤0 means one).
	MaxRestarts int
}

// ElasticResult reports a fault-tolerant run: the final leg's
// DistResult plus the failure/restart accounting.
type ElasticResult struct {
	*DistResult
	// Failures counts rank deaths absorbed; Checkpoints counts periodic
	// snapshots taken across all legs.
	Failures    int
	Checkpoints int
	// CheckpointSec is the wall-clock spent capturing periodic
	// snapshots; RestartSec the wall-clock spent reconfiguring and
	// relaunching after failures; LostWorkSec the wall-clock of training
	// progress discarded — time between the last checkpoint (or leg
	// start) and each failure. These are the executed counterparts of
	// the fsdp.FaultModel overhead terms.
	CheckpointSec float64
	RestartSec    float64
	LostWorkSec   float64
	// Worlds is the world size of every leg launched, first to last.
	Worlds []int
	// Checkpoint is the snapshot the final leg resumed from (nil if no
	// leg failed): the last periodic checkpoint before the failure,
	// exactly as captured — resume an uninterrupted reference run from
	// it to prove the continuation bitwise.
	Checkpoint *TrainState
}

// PretrainElastic runs PretrainDistributed with failure recovery: it
// checkpoints periodically (CheckpointEvery, forced to every epoch if
// unset), and when a leg dies — the armed dist.FaultPlan firing, or any
// rank panic surfacing as dist.ErrAborted — it relaunches with Resume
// set to the last checkpoint and Ranks/Plan set to the shrunk world
// (ShrinkTo, ShrinkPlan), the fault disarmed. The checkpoint is
// canonical flat state, so the N→M step is the normal resume path,
// which also fast-forwards the data and mask streams. The shrunk
// continuation trains the exact global batch and mask sequence of an
// uninterrupted ShrinkTo-rank run resumed from the same checkpoint, so
// the two are bitwise identical — the headline property the elastic
// tests hold every strategy × precision to.
//
// A failure before the first checkpoint is unrecoverable (there is
// nothing to resume) and returns the leg's error.
func PretrainElastic(cfg ElasticConfig, ds *geodata.Dataset) (*ElasticResult, error) {
	maxRestarts := cfg.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 1
	}
	out := &ElasticResult{}
	dcfg := cfg.DistConfig
	if dcfg.CheckpointEvery <= 0 {
		dcfg.CheckpointEvery = 1
	}
	var last *TrainState
	var lastCk time.Time
	userCB := dcfg.OnCheckpoint
	dcfg.OnCheckpoint = func(st *TrainState, wall time.Duration) {
		last = st
		lastCk = time.Now()
		out.Checkpoints++
		out.CheckpointSec += wall.Seconds()
		if userCB != nil {
			userCB(st, wall)
		}
	}
	for restarts := 0; ; restarts++ {
		out.Worlds = append(out.Worlds, dcfg.Ranks)
		lastCk = time.Now()
		res, err := PretrainDistributed(dcfg, ds)
		if err == nil {
			out.DistResult = res
			return out, nil
		}
		if !errors.Is(err, dist.ErrInjectedFault) && !errors.Is(err, dist.ErrAborted) {
			return nil, err
		}
		out.Failures++
		out.LostWorkSec += time.Since(lastCk).Seconds()
		if last == nil {
			return nil, fmt.Errorf("train: rank failure before the first checkpoint, nothing to resume: %w", err)
		}
		if restarts+1 > maxRestarts {
			return nil, fmt.Errorf("train: elastic run failed %d times, giving up: %w", out.Failures, err)
		}
		restartStart := time.Now()
		if cfg.ShrinkTo > 0 {
			dcfg.Ranks = cfg.ShrinkTo
		}
		if cfg.ShrinkPlan != (fsdp.Plan{}) {
			dcfg.Plan = cfg.ShrinkPlan
		}
		dcfg.Resume = last
		// The failed rank is gone: disarm the fault and drop skew
		// entries for ranks outside the shrunk world.
		dcfg.Fault = dist.FaultPlan{}
		if len(dcfg.ThrottleSkew) > 0 {
			skew := make(map[int]float64)
			for rk, s := range dcfg.ThrottleSkew {
				if rk < dcfg.Ranks {
					skew[rk] = s
				}
			}
			dcfg.ThrottleSkew = skew
		}
		out.Checkpoint = last
		out.RestartSec += time.Since(restartStart).Seconds()
	}
}
