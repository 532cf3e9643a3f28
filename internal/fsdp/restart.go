package fsdp

import (
	"fmt"
	"math"
)

// Checkpoint-restart pricing for the modeled Frontier runs: given a
// per-node MTBF and the measured cost of writing a checkpoint and
// restarting (the executed counterparts live in
// train.ElasticResult.CheckpointSec / RestartSec / LostWorkSec), the
// Young/Daly model prices the optimal checkpoint interval and the
// fraction of machine time a long pretraining run loses to
// checkpointing, lost work and restarts. This is the reliability
// dimension of the paper's scale story: at 64+ nodes the system MTBF
// drops into hours, and the elastic machinery (failure injection,
// N→M resume of canonical checkpoints, shrink-and-resume) is what keeps
// the overhead at the modeled floor instead of a full rerun.

// FaultModel parameterizes the failure process and the restart costs.
type FaultModel struct {
	// NodeMTBF is one node's mean time between failures in seconds.
	// Failures are assumed independent across nodes, so the system
	// MTBF scales as NodeMTBF / nodes.
	NodeMTBF float64
	// CheckpointSec (the model's δ) is the wall-clock cost of writing
	// one checkpoint.
	CheckpointSec float64
	// RestartSec (R) is the wall-clock cost of one restart: relaunch at
	// the new world from the last checkpoint, which is canonical flat
	// state and needs no conversion, and fast-forward the data/mask
	// streams to the resume point.
	RestartSec float64
}

// DefaultFaultModel is a representative Frontier operating point: a
// 5-year per-node MTBF (a few-hour system MTBF at full scale), a
// one-minute checkpoint write and a five-minute restart.
func DefaultFaultModel() FaultModel {
	return FaultModel{
		NodeMTBF:      5 * 365 * 24 * 3600,
		CheckpointSec: 60,
		RestartSec:    300,
	}
}

// SystemMTBF is the mean time between failures of an n-node job.
func (f FaultModel) SystemMTBF(nodes int) float64 {
	return f.NodeMTBF / float64(nodes)
}

// YoungInterval is Young's first-order optimal checkpoint interval
// τ = sqrt(2·δ·M) for checkpoint cost δ and system MTBF M.
func YoungInterval(delta, mtbf float64) float64 {
	return math.Sqrt(2 * delta * mtbf)
}

// DalyInterval is Daly's higher-order refinement of Young's interval:
//
//	τ = sqrt(2δM)·[1 + ⅓·sqrt(δ/(2M)) + (1/9)·(δ/(2M))] − δ   for δ < 2M
//	τ = M                                                      otherwise
//
// It converges to YoungInterval as δ/M → 0 and corrects toward shorter
// intervals when checkpoints are expensive relative to the MTBF.
func DalyInterval(delta, mtbf float64) float64 {
	if delta >= 2*mtbf {
		return mtbf
	}
	x := delta / (2 * mtbf)
	return float64(math.Sqrt(2*delta*mtbf)*(1+math.Sqrt(x)/3+x/9)) - delta
}

// RestartOverhead decomposes the machine time a run loses to fault
// tolerance at one checkpoint interval.
type RestartOverhead struct {
	// Nodes and SystemMTBF (seconds) locate the operating point.
	Nodes      int
	SystemMTBF float64
	// Interval is the checkpoint interval τ priced (seconds of useful
	// work between checkpoints).
	Interval float64
	// CheckpointFrac is δ/τ: the fraction of time spent writing
	// checkpoints.
	CheckpointFrac float64
	// LostWorkFrac is (τ+δ)/2 / M: the expected re-done work per
	// failure (half an interval plus the in-flight checkpoint),
	// amortized over the MTBF.
	LostWorkFrac float64
	// RestartFrac is R/M: relaunch plus resume cost amortized over the
	// MTBF.
	RestartFrac float64
	// Overhead is the sum of the three fractions; Efficiency is
	// 1/(1+Overhead) — the fraction of wall-clock doing useful work.
	Overhead   float64
	Efficiency float64
}

// Price evaluates the overhead decomposition at a given checkpoint
// interval (seconds).
func (f FaultModel) Price(nodes int, interval float64) (RestartOverhead, error) {
	if nodes < 1 || f.NodeMTBF <= 0 || f.CheckpointSec < 0 || f.RestartSec < 0 {
		return RestartOverhead{}, fmt.Errorf("fsdp: fault model %+v at %d nodes", f, nodes)
	}
	if interval <= 0 {
		return RestartOverhead{}, fmt.Errorf("fsdp: non-positive checkpoint interval %g", interval)
	}
	m := f.SystemMTBF(nodes)
	o := RestartOverhead{
		Nodes:          nodes,
		SystemMTBF:     m,
		Interval:       interval,
		CheckpointFrac: f.CheckpointSec / interval,
		LostWorkFrac:   (interval + f.CheckpointSec) / 2 / m,
		RestartFrac:    f.RestartSec / m,
	}
	o.Overhead = o.CheckpointFrac + o.LostWorkFrac + o.RestartFrac
	o.Efficiency = 1 / (1 + o.Overhead)
	return o, nil
}

// Optimal prices the Daly-optimal interval for an n-node job.
func (f FaultModel) Optimal(nodes int) (RestartOverhead, error) {
	if nodes < 1 || f.NodeMTBF <= 0 {
		return RestartOverhead{}, fmt.Errorf("fsdp: fault model %+v at %d nodes", f, nodes)
	}
	tau := DalyInterval(f.CheckpointSec, f.SystemMTBF(nodes))
	if tau <= 0 {
		// Degenerate (checkpoint dwarfs the MTBF): fall back to Young.
		tau = YoungInterval(f.CheckpointSec, f.SystemMTBF(nodes))
	}
	return f.Price(nodes, tau)
}
