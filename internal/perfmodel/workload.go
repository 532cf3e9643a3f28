// Package perfmodel quantifies the training workloads of the paper:
// per-block FLOPs and parameter bytes for the ViT variants (and the MAE
// encoder+decoder composite), activation memory under vanilla and
// checkpointed execution, and the data-loading model behind Figure 1's
// IO curve. The FSDP simulator consumes these numbers to build its
// per-step task graphs.
package perfmodel

import (
	"fmt"

	"repro/internal/vit"
)

// Precision captures the numeric formats of a training run. The paper
// trains with PyTorch AMP-style mixed precision on MI250X: bf16 math
// and communication with fp32 master weights and Adam state.
type Precision struct {
	// ComputeBytes is the activation/parameter element size used in
	// kernels and collectives.
	ComputeBytes float64
	// StateBytesPerParam is the resident bytes per parameter for master
	// weights, gradients and optimizer state (sharded by FSDP).
	// fp32 master (4) + fp32 Adam m,v (8) + bf16 working copy (2) = 14.
	StateBytesPerParam float64
	// MasterBytes is the master-weight/full-precision gradient element
	// size. DDP is modeled reducing gradients at this width regardless
	// of ComputeBytes (its buckets hold fp32 gradients — one of the
	// implementation differences from FSDP the paper alludes to); ≤ 0
	// defaults to 4. It exists so no simulated table hard-codes a
	// 4-byte element size — the same width-parameterization
	// fsdp.TrafficPerStep got for the executed bf16 wire.
	MasterBytes float64
}

// MixedPrecision is the default training precision.
func MixedPrecision() Precision {
	return Precision{ComputeBytes: 2, StateBytesPerParam: 14, MasterBytes: 4}
}

// FP32Precision is the full-single-precision counterpart: fp32 math
// and communication, fp32 master + Adam moments (12 resident bytes per
// parameter, no separate working copy). The executed training loop's
// FP32 mode corresponds to this profile.
func FP32Precision() Precision {
	return Precision{ComputeBytes: 4, StateBytesPerParam: 12, MasterBytes: 4}
}

// PrecisionByName resolves the CLI spellings of the numeric profiles
// — "bf16" (the paper's AMP recipe) and "fp32" — failing fast on
// anything else so a typo never silently regenerates tables under a
// default profile. Used by cmd/repro -precision.
func PrecisionByName(name string) (Precision, error) {
	switch name {
	case "bf16":
		return MixedPrecision(), nil
	case "fp32":
		return FP32Precision(), nil
	default:
		return Precision{}, fmt.Errorf("perfmodel: unknown precision %q (want bf16 | fp32)", name)
	}
}

// masterBytes returns MasterBytes with the fp32 default applied.
func (p Precision) masterBytes() float64 {
	if p.MasterBytes <= 0 {
		return 4
	}
	return p.MasterBytes
}

// GradReduceBytes returns the element width a strategy's gradient
// reduction moves: ComputeBytes for the FSDP family, the full master
// width for DDP's fp32 buckets.
func (p Precision) GradReduceBytes(ddp bool) float64 {
	if ddp && p.ComputeBytes < p.masterBytes() {
		return p.masterBytes()
	}
	return p.ComputeBytes
}

// Workload describes one rank's per-step work.
type Workload struct {
	Model      vit.Config
	LocalBatch int
	// EncoderTokens is the sequence length seen by encoder blocks
	// (Model.Tokens() for supervised ViT; ~25% of it for MAE).
	EncoderTokens int
	// MAE adds the lightweight decoder (width 512 × 8 blocks over the
	// full token grid) to compute and communication.
	MAE bool
	// DecWidth/DecDepth override the decoder geometry (0 keeps the
	// paper's 512×8). The executed test-scale MAE models run scaled-down
	// decoders (mae.Config.DecoderWidth/Depth); the calibration
	// validation suite uses these overrides so fsdp.Simulate prices the
	// exact model PretrainDistributed executes.
	DecWidth, DecDepth int
	// ActCheckpoint enables activation checkpointing: activations
	// shrink to block boundaries, backward recomputes forward (+1×
	// forward FLOPs).
	ActCheckpoint bool
	Prec          Precision
}

// ViTWorkload is the plain supervised-ViT profile used in Sections
// IV-B/C/D ("the ViT part of the MAE workload is the most
// compute-demanding part").
func ViTWorkload(cfg vit.Config, localBatch int) Workload {
	return Workload{
		Model:         cfg,
		LocalBatch:    localBatch,
		EncoderTokens: cfg.Tokens(),
		Prec:          MixedPrecision(),
	}
}

// MAEWorkload is the Figure 1 profile: encoder over visible tokens
// only, plus the 512×8 decoder over the full grid.
func MAEWorkload(cfg vit.Config, localBatch int, maskRatio float64) Workload {
	vis := int(float64(cfg.Tokens()) * (1 - maskRatio))
	if vis < 1 {
		vis = 1
	}
	return Workload{
		Model:         cfg,
		LocalBatch:    localBatch,
		EncoderTokens: vis,
		MAE:           true,
		Prec:          MixedPrecision(),
	}
}

// Decoder constants per the paper/MAE defaults.
const (
	decWidth = 512
	decDepth = 8
)

// decoderWidth/decoderDepth return the decoder geometry with the
// paper defaults applied.
func (w Workload) decoderWidth() int {
	if w.DecWidth > 0 {
		return w.DecWidth
	}
	return decWidth
}

func (w Workload) decoderDepth() int {
	if w.DecDepth > 0 {
		return w.DecDepth
	}
	return decDepth
}

// DecoderGeometry returns the decoder width and depth with the paper
// defaults applied — the geometry Units() prices. Exported for the
// calibration package, which weighs the workload's GEMM shapes to pick
// the MFU operating point on the measured roofline.
func (w Workload) DecoderGeometry() (width, depth int) {
	return w.decoderWidth(), w.decoderDepth()
}

// Validate reports configuration errors.
func (w Workload) Validate() error {
	if err := w.Model.Validate(); err != nil {
		return err
	}
	if w.LocalBatch <= 0 {
		return fmt.Errorf("perfmodel: non-positive local batch")
	}
	if w.EncoderTokens <= 0 {
		return fmt.Errorf("perfmodel: non-positive token count")
	}
	if w.Prec.ComputeBytes <= 0 || w.Prec.StateBytesPerParam <= 0 {
		return fmt.Errorf("perfmodel: precision not set (use MixedPrecision)")
	}
	if w.DecWidth < 0 || w.DecDepth < 0 {
		return fmt.Errorf("perfmodel: negative decoder override %d×%d", w.DecWidth, w.DecDepth)
	}
	return nil
}

// blockFLOPs returns forward FLOPs for one transformer block over the
// whole local batch at the given width/MLP/tokens:
//
//	2·B·T·(4W² + 2WM) GEMM terms + 4·B·T²·W attention terms.
func blockFLOPs(batch, tokens, width, mlp int) float64 {
	b := float64(batch)
	t := float64(tokens)
	wd := float64(width)
	m := float64(mlp)
	return float64(2*b*t*(float64(4*wd*wd)+float64(2*wd*m))) + float64(4*b*t*t*wd)
}

// EncoderBlockForwardFLOPs returns per-block forward FLOPs for the
// encoder over the local batch.
func (w Workload) EncoderBlockForwardFLOPs() float64 {
	return blockFLOPs(w.LocalBatch, w.EncoderTokens, w.Model.Width, w.Model.MLP)
}

// DecoderBlockForwardFLOPs returns per-block forward FLOPs for the MAE
// decoder (zero when MAE is false). The decoder always sees the full
// token grid.
func (w Workload) DecoderBlockForwardFLOPs() float64 {
	if !w.MAE {
		return 0
	}
	dw := w.decoderWidth()
	return blockFLOPs(w.LocalBatch, w.Model.Tokens(), dw, 4*dw)
}

// EmbedForwardFLOPs returns the patch-projection forward FLOPs.
func (w Workload) EmbedForwardFLOPs() float64 {
	return 2 * float64(w.LocalBatch) * float64(w.EncoderTokens) *
		float64(w.Model.PatchDim()) * float64(w.Model.Width)
}

// BackwardMultiplier converts forward FLOPs to backward FLOPs: 2×
// normally, 3× under activation checkpointing (forward recompute).
func (w Workload) BackwardMultiplier() float64 {
	if w.ActCheckpoint {
		return 3
	}
	return 2
}

// TotalForwardFLOPs sums the units' forward FLOPs.
func (w Workload) TotalForwardFLOPs() float64 {
	var total float64
	for _, u := range w.Units() {
		total += u.FwdFLOPs
	}
	return total
}

// TotalStepFLOPs is forward + backward for one optimizer step.
func (w Workload) TotalStepFLOPs() float64 {
	return w.TotalForwardFLOPs() * (1 + w.BackwardMultiplier())
}

// Unit is one FSDP flat-parameter unit (≈ one transformer block): the
// granularity at which FSDP shards, gathers and reduce-scatters, and
// the one at which the executed backward (mae.BackwardStepLayers)
// finalizes gradients.
type Unit struct {
	Name string
	// Params is the unit's parameter count.
	Params int64
	// FwdFLOPs / BwdFLOPs over the local batch.
	FwdFLOPs float64
	BwdFLOPs float64
}

// Units returns the model's unit table in flat (forward) order: the
// patch projection (embed), the encoder blocks, the encoder's final
// norm (enc_norm) and — for MAE — the decoder embedding with the mask
// token (dec_embed), the decoder blocks, the decoder's final norm
// (dec_norm) and the prediction head (pred). Parameters pack in this
// order (mae.Model.Params), so unit k's flat range starts at the sum
// of the Params before it. The FSDP simulator iterates this list to
// build its task graphs, and the executed overlap path maps backward
// completion events onto flat ranges with it. The norms and dec_embed
// are priced at zero FLOPs.
func (w Workload) Units() []Unit {
	bwd := w.BackwardMultiplier()
	unit := func(name string, params int64, fwd float64) Unit {
		return Unit{Name: name, Params: params, FwdFLOPs: fwd, BwdFLOPs: fwd * bwd}
	}
	wd, pd := int64(w.Model.Width), int64(w.Model.PatchDim())
	units := []Unit{unit("embed", pd*wd+wd, w.EmbedForwardFLOPs())}
	for i := 0; i < w.Model.Depth; i++ {
		units = append(units, unit(fmt.Sprintf("enc%d", i), w.Model.BlockParams(), w.EncoderBlockForwardFLOPs()))
	}
	units = append(units, unit("enc_norm", 2*wd, 0))
	if !w.MAE {
		return units
	}
	dw := int64(w.decoderWidth())
	units = append(units, unit("dec_embed", wd*dw+dw+dw, 0))
	dp := vit.Config{Width: int(dw), MLP: 4 * int(dw)}.BlockParams()
	for i := 0; i < w.decoderDepth(); i++ {
		units = append(units, unit(fmt.Sprintf("dec%d", i), dp, w.DecoderBlockForwardFLOPs()))
	}
	headFLOPs := 2 * float64(w.LocalBatch) * float64(w.Model.Tokens()) * float64(dw) * float64(pd)
	return append(units, unit("dec_norm", 2*dw, 0), unit("pred", dw*pd+pd, headFLOPs))
}

// TotalParams sums the unit parameter counts.
func (w Workload) TotalParams() int64 {
	var n int64
	for _, u := range w.Units() {
		n += u.Params
	}
	return n
}

// ActivationBytes estimates per-GPU activation memory. Without
// checkpointing the dominant terms are kAct buffers of (B·T·W) per
// block plus the attention state; with checkpointing only
// block-boundary activations plus one block's working set remain.
// The attention state is the materialized (T×T) probabilities per
// (batch, head): b·h·t²·cb per block.
//
// Against the executed path (nn.Block): a block keeps exactly the
// (B·T·W)-sized buffers its backward re-reads — two LayerNorm x̂, the
// fused QKV output (3, read in place as every head's Q, K, V) and the
// merged head output, 6 in all — plus B·T·MLP (FC1's pre-activation,
// which GELU's backward reads), 10 (B·T·W) equivalents at MLP = 4·W,
// where kAct = 8 counts the LayerNorm outputs instead of the
// pre-activation. The LayerNorm outputs, the output projection's,
// GELU's and FC2's outputs and both residual sums live in one scratch
// working set that every block reuses; backward regenerates the two it
// needs (the LayerNorm outputs and GELU's) into its transients, one
// B·T·(max(MLP, 3·W) + W) pair shared by all blocks, which also holds
// every input gradient.
func (w Workload) ActivationBytes() float64 {
	b := float64(w.LocalBatch)
	t := float64(w.EncoderTokens)
	wd := float64(w.Model.Width)
	d := float64(w.Model.Depth)
	h := float64(w.Model.Heads)
	cb := w.Prec.ComputeBytes
	const kAct = 8                           // linear-term buffers retained per block for backward
	attnState := float64(b * h * t * t * cb) // per block, materialized path
	if w.ActCheckpoint {
		boundaries := float64(b * t * wd * d * cb)
		working := float64(b*t*(float64(6*wd)+float64(w.Model.MLP))*cb) + attnState
		return boundaries + working
	}
	linear := float64(b * t * wd * d * kAct * cb)
	return linear + float64(attnState*d)
}
