package train

import "repro/internal/perfmodel"

// WorkloadFor maps a DistConfig onto the perfmodel workload describing
// exactly what PretrainDistributed executes per rank and optimizer
// step: the configured encoder over its visible tokens, the configured
// (scaled-down) decoder via the DecWidth/DecDepth overrides, the local
// micro-batch, and the numeric profile of the executed precision mode.
// Feeding this workload to fsdp.Simulate on a calibrated machine
// (internal/calib) yields the simulator's prediction for the step the
// executed run measures in trace.ExecBreakdown — the bridge the
// simulator-validation suite compares across.
//
// Gradient accumulation is intentionally absent: the workload describes
// one micro-step's compute and one optimizer step's communication, the
// same convention as fsdp.TrafficPerStep.
func WorkloadFor(cfg DistConfig) (perfmodel.Workload, error) {
	if _, err := cfg.Resolve(); err != nil {
		return perfmodel.Workload{}, err
	}
	return cfg.workload(), nil
}

// workload is WorkloadFor for a configuration already resolved.
func (cfg DistConfig) workload() perfmodel.Workload {
	prec := perfmodel.FP32Precision()
	if cfg.Precision == BF16 {
		// The *executed* bf16 recipe: kernels stay fp32 (compute time is
		// priced by the calibrated fp32 roofline either way), but every
		// collective payload — gradient reductions included, DDP's too —
		// moves 2-byte bf16 elements, and the resident state is fp32
		// master + Adam moments + the bf16 working copy. MasterBytes is
		// set to the wire width so Precision.GradReduceBytes does not
		// re-widen DDP buckets to fp32: that bump models PyTorch DDP,
		// not this repo's executed bf16 wire (fsdp.TrafficPerStep(·,2)).
		prec = perfmodel.Precision{ComputeBytes: 2, StateBytesPerParam: 14, MasterBytes: 2}
	}
	return perfmodel.Workload{
		Model:         cfg.MAE.Encoder,
		LocalBatch:    cfg.BatchSize / cfg.Ranks,
		EncoderTokens: cfg.MAE.KeepTokens(),
		MAE:           true,
		DecWidth:      cfg.MAE.DecoderWidth,
		DecDepth:      cfg.MAE.DecoderDepth,
		Prec:          prec,
	}
}
