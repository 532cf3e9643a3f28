package perfmodel

import (
	"math"
	"testing"

	"repro/internal/vit"
)

func TestViTWorkloadValidates(t *testing.T) {
	for _, cfg := range vit.TableI {
		w := ViTWorkload(cfg, 32)
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := ViTWorkload(vit.ViTBase, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func TestUnitsParamsMatchEncoderParams(t *testing.T) {
	// The FSDP unit decomposition must account for exactly the encoder's
	// parameters — this ties the simulator to the real architecture.
	for _, cfg := range vit.TableI {
		w := ViTWorkload(cfg, 32)
		if got, want := w.TotalParams(), cfg.EncoderParams(); got != want {
			t.Errorf("%s: units sum %d, encoder params %d", cfg.Name, got, want)
		}
	}
}

func TestUnitsCount(t *testing.T) {
	w := ViTWorkload(vit.ViTBase, 32)
	if len(w.Units()) != 1+12+1 {
		t.Fatalf("units=%d want 14 (embed + 12 blocks + enc_norm)", len(w.Units()))
	}
	wm := MAEWorkload(vit.ViT3B, 32, 0.75)
	if len(wm.Units()) != 1+32+1+1+8+1+1 {
		t.Fatalf("MAE units=%d want 45", len(wm.Units()))
	}
}

func TestMAEVisibleTokens(t *testing.T) {
	w := MAEWorkload(vit.ViT3B, 32, 0.75)
	if w.EncoderTokens != vit.ViT3B.Tokens()/4 {
		t.Fatalf("visible tokens %d want %d", w.EncoderTokens, vit.ViT3B.Tokens()/4)
	}
	if !w.MAE {
		t.Fatal("MAE flag unset")
	}
}

func TestFLOPsScaleWithModel(t *testing.T) {
	// Bigger Table I models must require strictly more FLOPs per step.
	prev := 0.0
	for _, cfg := range vit.TableI {
		w := ViTWorkload(cfg, 32)
		f := w.TotalStepFLOPs()
		if f <= prev {
			t.Fatalf("%s FLOPs %v not larger than previous %v", cfg.Name, f, prev)
		}
		prev = f
	}
}

func TestFLOPsApprox6PT(t *testing.T) {
	// Transformer rule of thumb: total step FLOPs ≈ 6·P·T·B (forward
	// 2PT, backward 4PT) within ~15% for GEMM-dominated models.
	w := ViTWorkload(vit.ViT3B, 32)
	approx := 6 * float64(vit.ViT3B.EncoderParams()) * float64(w.EncoderTokens) * float64(w.LocalBatch)
	got := w.TotalStepFLOPs()
	if r := got / approx; r < 0.85 || r > 1.15 {
		t.Fatalf("step FLOPs %v vs 6PTB %v (ratio %v)", got, approx, r)
	}
}

func TestBackwardMultiplier(t *testing.T) {
	w := ViTWorkload(vit.ViTBase, 8)
	if w.BackwardMultiplier() != 2 {
		t.Fatal("plain backward multiplier")
	}
	w.ActCheckpoint = true
	if w.BackwardMultiplier() != 3 {
		t.Fatal("checkpointed backward multiplier")
	}
}

func TestActivationBytesCheckpointingShrinks(t *testing.T) {
	w := ViTWorkload(vit.ViT15B, 32)
	plain := w.ActivationBytes()
	w.ActCheckpoint = true
	ckpt := w.ActivationBytes()
	if ckpt >= plain {
		t.Fatalf("checkpointing did not shrink activations: %v vs %v", ckpt, plain)
	}
	if ckpt < plain/30 {
		t.Fatalf("checkpointed activations implausibly small: %v vs %v", ckpt, plain)
	}
}

func TestActivationBytesScaleWithBatch(t *testing.T) {
	a := ViTWorkload(vit.ViT1B, 16).ActivationBytes()
	b := ViTWorkload(vit.ViT1B, 32).ActivationBytes()
	if math.Abs(b/a-2) > 1e-9 {
		t.Fatalf("activations not linear in batch: %v", b/a)
	}
}

func TestMAEEncoderCheaperThanViT(t *testing.T) {
	// With 75% masking the MAE encoder runs on 25% of the tokens, so the
	// MAE step must be much cheaper than the supervised ViT step despite
	// the added decoder (the paper's rationale for analyzing ViT).
	vitW := ViTWorkload(vit.ViT3B, 32)
	maeW := MAEWorkload(vit.ViT3B, 32, 0.75)
	if maeW.TotalStepFLOPs() >= vitW.TotalStepFLOPs() {
		t.Fatalf("MAE step (%v) not cheaper than ViT step (%v)",
			maeW.TotalStepFLOPs(), vitW.TotalStepFLOPs())
	}
	// Decoder share must be "small" (paper: <10% of FLOPs per token of a
	// large encoder; for 3B the decoder is a rounding error).
	decShare := 8 * maeW.DecoderBlockForwardFLOPs() / maeW.TotalForwardFLOPs()
	if decShare > 0.35 {
		t.Fatalf("decoder share %v implausibly large", decShare)
	}
}

func TestPrecisionDefaults(t *testing.T) {
	p := MixedPrecision()
	if p.ComputeBytes != 2 {
		t.Fatalf("compute bytes %v", p.ComputeBytes)
	}
	if p.StateBytesPerParam < 12 || p.StateBytesPerParam > 20 {
		t.Fatalf("state bytes %v outside Adam mixed-precision range", p.StateBytesPerParam)
	}
}

func TestIOModelScalesNearLinearly(t *testing.T) {
	io := DefaultIO()
	one := io.ImagesPerSec(1)
	if one <= 0 {
		t.Fatal("zero IO throughput")
	}
	sixtyFour := io.ImagesPerSec(64)
	ratio := sixtyFour / one
	if ratio < 48 || ratio > 64 {
		t.Fatalf("64-node IO scaling ratio %v, want near-linear", ratio)
	}
	if io.ImagesPerSec(0) != 0 {
		t.Fatal("zero nodes should give zero throughput")
	}
}

func TestIOMonotoneInNodes(t *testing.T) {
	io := DefaultIO()
	prev := 0.0
	for n := 1; n <= 128; n *= 2 {
		v := io.ImagesPerSec(n)
		if v <= prev {
			t.Fatalf("IO not monotone at %d nodes", n)
		}
		prev = v
	}
}
