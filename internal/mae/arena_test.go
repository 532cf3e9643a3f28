package mae

import (
	"math"
	"testing"

	"repro/internal/golden"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/vit"
)

// blockFloats is what one block's forward keeps on a recording arena,
// the closed form nn's TestBlockRetainedFloats pins: 12·R·W + 2·R·H +
// 2·R + 2·B·Hd·T floats over R = B·T rows.
func blockFloats(batch, tokens, width, hidden, heads int) int {
	r := batch * tokens
	return 12*r*width + 2*r*hidden + 2*r + 2*batch*heads*tokens
}

// stepFloats is a training step's activation footprint in floats: the
// forward's takes, then the backward's gradients between units and the
// one transient pair (wide, narrow) above them that every encoder and
// decoder block shares, at the larger of the two stacks' sizes.
func stepFloats(cfg Config, batch int) int {
	enc := cfg.Encoder
	t, k, pd, w, dw := enc.Tokens(), cfg.KeepTokens(), enc.PatchDim(), enc.Width, cfg.DecoderWidth
	// re and rd are the encoder's and the decoder's rows.
	re, rd := batch*k, batch*t
	fwd := 2*rd*pd + // patches, normalized targets
		rd*w + re*w + // the embedding, its visible rows
		enc.Depth*blockFloats(batch, k, w, enc.MLP, enc.Heads) + 2*re*w + re + // encoder, its norm
		re*dw + rd*dw + // the decoder embedding, the assembled decoder input
		cfg.DecoderDepth*blockFloats(batch, t, dw, 4*dw, cfg.DecoderHeads) + 2*rd*dw + rd + // decoder, its norm
		rd*pd + 3*batch*(t-k)*pd // the prediction; the masked prediction, target and loss gradient
	bwd := rd*pd + 2*rd*dw + re*dw + 2*re*w + rd*w + // dFull, the decoder's two, dVisible, the encoder's two, dEmbed
		max(rd*4*dw, re*max(enc.MLP, 3*w)) + max(rd*dw, re*w)
	return fwd + bwd
}

// TestStepActivationBytes pins a training step's activation footprint —
// the model's recording arena after two steps — to its closed form at
// the tiny config and at pretrain_compute's shape (ViT-3B analog,
// 64-pixel images in 4-pixel patches, batch 16): the forward's
// activations and caches for encoder and decoder, the gather and
// scatter buffers, the gradients passed between units and the transient
// top. Nothing else holds a step's activations.
func TestStepActivationBytes(t *testing.T) {
	an, err := vit.Analog("ViT-3B", 64, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		batch int
	}{{"tiny", tinyCfg(), 3}, {"pretrain_compute", Default(an), 16}} {
		m := New(c.cfg, rng.New(1))
		imgs := randImgs(c.cfg, c.batch, 2)
		for step := 0; step < 2; step++ {
			m.ForwardWithMask(imgs, c.batch, m.DrawMasks(c.batch))
			m.BackwardStep()
		}
		want := 4 * stepFloats(c.cfg, c.batch)
		if got := m.ctx.Bytes(); got != want {
			t.Errorf("%s: a step holds %d activation bytes, want %d", c.name, got, want)
		}
		t.Logf("%s: %.2f MiB of activations per step", c.name, float64(want)/(1<<20))
	}
}

// poison fills slots slots of a with NaN at n floats each — more than
// any take below — and resets it, so every slot a pass then takes is
// reused, stale and oversized.
func poison(a *nn.Arena, slots, n int) {
	for i := 0; i < slots; i++ {
		for j, buf := 0, a.Take(n); j < n; j++ {
			buf[j] = float32(math.NaN())
		}
	}
	a.Reset()
}

// TestPoisonedArenas: the model's arenas hand out slots holding
// whatever the previous pass left, so every buffer a step or a frozen
// pass takes — the forward's outputs and caches, decIn, dFull, dEmbed
// and the blocks' transients — must be overwritten, never accumulated
// into. With both arenas poisoned with NaN, two steps' losses and
// gradients and the frozen features are bitwise those of fresh arenas,
// and the poisoned arenas do not grow.
func TestPoisonedArenas(t *testing.T) {
	cfg := tinyCfg()
	const batch, slots, size = 3, 256, 4096
	imgs := randImgs(cfg, batch, 19)
	run := func(poisoned bool) uint64 {
		m := New(cfg, rng.New(5))
		if poisoned {
			poison(m.ctx, slots, size)
			poison(m.frozen, slots, size)
			defer func() {
				if m.ctx.Bytes() != 4*slots*size || m.frozen.Bytes() != 4*slots*size {
					t.Error("a take outgrew the poisoned slots")
				}
			}()
		}
		var parts []any
		for step := 0; step < 2; step++ {
			parts = append(parts, m.ForwardWithMask(imgs, batch, m.DrawMasks(batch)))
			m.BackwardStep()
		}
		for _, p := range m.Params() {
			parts = append(parts, p.Grad)
		}
		return golden.Fingerprint(append(parts, m.Features(imgs, batch), m.TokenFeatures(imgs, batch))...)
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("poisoned arenas: fingerprint %#x, fresh arenas %#x", got, want)
	}
}
