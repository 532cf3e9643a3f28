// Package trace synthesizes rocm-smi-style GPU telemetry traces —
// power, memory and utilization sampled at a fixed cadence — from a
// simulated training step, reproducing the bottom panel of the paper's
// Figure 4. A trace replays the step's phase structure (forward ramp,
// backward with communication overlap, optimizer dip) cyclically over
// the sampling window, with deterministic per-sample jitter standing in
// for sensor noise.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/fsdp"
	"repro/internal/hw"
	"repro/internal/rng"
)

// Sample is one telemetry reading for one GCD.
type Sample struct {
	TimeSec     float64
	PowerW      float64
	MemoryBytes float64
	UtilPct     float64
}

// Trace is a time series of samples for one configuration.
type Trace struct {
	Label   string
	Samples []Sample
}

// Options controls trace synthesis.
type Options struct {
	// DurationSec is the wall-clock window to cover.
	DurationSec float64
	// IntervalSec is the sampling cadence (rocm-smi default ≈ 1 s).
	IntervalSec float64
	Seed        uint64
}

// DefaultOptions mirrors the paper's trace window.
func DefaultOptions() Options {
	return Options{DurationSec: 120, IntervalSec: 1, Seed: 17}
}

// FromResult synthesizes a telemetry trace for the training
// configuration summarized by r.
func FromResult(r fsdp.Result, m hw.Machine, opts Options) Trace {
	if opts.IntervalSec <= 0 {
		opts.IntervalSec = 1
	}
	if opts.DurationSec <= 0 {
		opts.DurationSec = 60
	}
	g := rng.New(opts.Seed ^ uint64(len(r.Plan.Name())))
	tr := Trace{Label: r.Plan.Name()}

	// Phase fractions of one step: forward (compute ramp), backward
	// (compute + overlapped communication), exposed communication, and
	// the optimizer tail.
	step := r.StepTime
	if step <= 0 {
		step = 1
	}
	fwdFrac := r.ComputeTime / 3 / step
	exposedFrac := r.ExposedComm / step
	optFrac := 0.02
	bwdFrac := 1 - fwdFrac - exposedFrac - optFrac
	if bwdFrac < 0 {
		bwdFrac = 0
	}

	for t := 0.0; t < opts.DurationSec; t += opts.IntervalSec {
		phase := (t / step) - float64(int(t/step)) // position within a step
		var power, util float64
		switch {
		case phase < fwdFrac:
			power = r.AvgPowerPerGPU * 1.05
			util = 100 * r.GPUUtilization
		case phase < fwdFrac+bwdFrac:
			power = r.AvgPowerPerGPU * 1.02
			util = 100 * r.GPUUtilization
		case phase < fwdFrac+bwdFrac+exposedFrac:
			// Exposed communication: utilization stays pinned (RCCL
			// kernels occupy CUs) but power sags.
			power = m.IdlePower + (r.AvgPowerPerGPU-m.IdlePower)*0.6
			util = 100 * r.GPUUtilization
		default:
			power = m.IdlePower + (r.AvgPowerPerGPU-m.IdlePower)*0.4
			util = 60
		}
		power += 6 * g.NormFloat64()
		util += 1.2 * g.NormFloat64()
		if power < m.IdlePower {
			power = m.IdlePower
		}
		if power > m.MaxPower {
			power = m.MaxPower
		}
		if util > 100 {
			util = 100
		}
		if util < 0 {
			util = 0
		}
		mem := r.MemoryPerGPU * (1 + 0.005*g.NormFloat64())
		if mem > m.HBMBytesPerGPU {
			mem = m.HBMBytesPerGPU
		}
		tr.Samples = append(tr.Samples, Sample{TimeSec: t, PowerW: power, MemoryBytes: mem, UtilPct: util})
	}
	return tr
}

// ExecBreakdown decomposes an *executed* training run's wall-clock
// into compute and exposed communication — the measured counterpart of
// the simulator's Result.ComputeTime/ExposedComm split. Where
// fsdp.Simulate predicts how much collective latency a schedule hides
// behind backward compute, an ExecBreakdown reports how much a real
// run (train.PretrainDistributed, which times every per-step
// collective block and async-handle wait on rank 0) actually hid: with
// overlap off ExposedCommSec approaches the full collective time, with
// overlap on it shrinks toward the unhidable residual.
type ExecBreakdown struct {
	Label string
	// Steps is the number of optimizer steps the run executed.
	Steps int
	// WallSec = ComputeSec + ExposedCommSec: rank 0's training-loop
	// wall-clock, the time it spent blocked in collectives (exposed
	// communication), and the remainder (compute + input pipeline).
	WallSec, ComputeSec, ExposedCommSec float64
}

// NewExecBreakdown builds the decomposition from a run's wall-clock
// and its exposed-communication time.
func NewExecBreakdown(label string, steps int, wallSec, exposedSec float64) ExecBreakdown {
	b := ExecBreakdown{Label: label, Steps: steps, WallSec: wallSec, ExposedCommSec: exposedSec}
	b.ComputeSec = wallSec - exposedSec
	if b.ComputeSec < 0 {
		b.ComputeSec = 0
	}
	return b
}

// StepSec returns the mean wall-clock per optimizer step.
func (b ExecBreakdown) StepSec() float64 {
	if b.Steps == 0 {
		return 0
	}
	return b.WallSec / float64(b.Steps)
}

// ExposedStepSec returns the mean exposed-communication time per
// optimizer step — the executed analog of Result.ExposedComm.
func (b ExecBreakdown) ExposedStepSec() float64 {
	if b.Steps == 0 {
		return 0
	}
	return b.ExposedCommSec / float64(b.Steps)
}

// ExposedFrac returns the fraction of wall-clock spent in exposed
// communication.
func (b ExecBreakdown) ExposedFrac() float64 {
	if b.WallSec <= 0 {
		return 0
	}
	return b.ExposedCommSec / b.WallSec
}

// String renders the one-line report the training CLI prints.
func (b ExecBreakdown) String() string {
	return fmt.Sprintf("%s: %.1f ms/step (compute %.1f ms, exposed comm %.1f ms, %.0f%% exposed)",
		b.Label, 1e3*b.StepSec(), 1e3*b.ComputeSec/max(float64(b.Steps), 1),
		1e3*b.ExposedStepSec(), 100*b.ExposedFrac())
}

// Agreement is one executed-vs-predicted comparison: a measured
// quantity from an ExecBreakdown next to the calibrated simulator's
// prediction of the same quantity. The calibration validation suite
// (internal/calib) builds one per compared metric and holds the ratio
// within a stated tolerance factor.
type Agreement struct {
	Label        string
	MeasuredSec  float64
	PredictedSec float64
	// FloorSec is the magnitude below which the two sides are compared
	// as "both negligible" instead of by ratio: timing noise dominates
	// micro-second-scale quantities, so a ratio there is meaningless.
	FloorSec float64
}

// Ratio returns measured/predicted (0 when the prediction is not
// positive).
func (a Agreement) Ratio() float64 {
	if a.PredictedSec <= 0 {
		return 0
	}
	return a.MeasuredSec / a.PredictedSec
}

// Within reports whether the two sides agree within the tolerance
// factor tol ≥ 1: either both sit below FloorSec (negligible on both
// accounts), or the ratio lies in [1/tol, tol].
func (a Agreement) Within(tol float64) bool {
	if tol < 1 {
		return false
	}
	if a.MeasuredSec <= a.FloorSec && a.PredictedSec <= a.FloorSec {
		return true
	}
	if a.MeasuredSec <= 0 || a.PredictedSec <= 0 {
		return false
	}
	r := a.Ratio()
	return r <= tol && r >= 1/tol
}

// String renders the comparison line the validation report prints.
func (a Agreement) String() string {
	return fmt.Sprintf("%s: measured %.2f ms, predicted %.2f ms (×%.2f)",
		a.Label, 1e3*a.MeasuredSec, 1e3*a.PredictedSec, a.Ratio())
}

// RequestTrace is the per-request latency decomposition the serving
// stack (internal/serve) stamps at its trace points: admission into
// the queue, batch close (the dynamic batcher's form event), compute
// launch on an engine, and completion. Times are seconds on the
// server's clock — wall for the executed server, virtual for the
// deterministic driver and the serving simulator — so the same type
// carries both sides of the measured-vs-modeled comparison.
type RequestTrace struct {
	ID              uint64
	ArrivalSec      float64
	BatchFormSec    float64
	ComputeStartSec float64
	DoneSec         float64
}

// QueueWaitSec is the time from admission to compute launch — the
// batcher-induced wait (waiting for the batch to close, plus the
// closed batch waiting for a free engine).
func (r RequestTrace) QueueWaitSec() float64 { return r.ComputeStartSec - r.ArrivalSec }

// ComputeSec is the batch execution time the request rode along with.
func (r RequestTrace) ComputeSec() float64 { return r.DoneSec - r.ComputeStartSec }

// TotalSec is admission-to-completion latency.
func (r RequestTrace) TotalSec() float64 { return r.DoneSec - r.ArrivalSec }

// MeanPower returns the trace's average power draw.
func (t Trace) MeanPower() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Samples {
		s += v.PowerW
	}
	return s / float64(len(t.Samples))
}

// MeanUtil returns the trace's average utilization percentage.
func (t Trace) MeanUtil() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Samples {
		s += v.UtilPct
	}
	return s / float64(len(t.Samples))
}

// RenderCSV formats the trace as rocm-smi-like CSV
// (time,power_w,mem_gb,util_pct).
func (t Trace) RenderCSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Label)
	b.WriteString("time_s,power_w,memory_gb,gpu_util_pct\n")
	for _, s := range t.Samples {
		fmt.Fprintf(&b, "%.1f,%.1f,%.2f,%.1f\n", s.TimeSec, s.PowerW, s.MemoryBytes/1e9, s.UtilPct)
	}
	return b.String()
}
