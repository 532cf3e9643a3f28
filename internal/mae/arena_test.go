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
// exactly what its backward reads, the closed form nn's
// TestBlockRetainedFloats pins: 6·R·W + R·H + 2·R + 2·B·Hd·T floats
// over R = B·T rows.
func blockFloats(batch, tokens, width, hidden, heads int) int {
	r := batch * tokens
	return 6*r*width + r*hidden + 2*r + 2*batch*heads*tokens
}

// deepest is the scratch stack's size after passes that take the given
// sizes in order: slot i holds the largest size any pass took at depth
// i.
func deepest(passes ...[]int) int {
	n := 0
	for i := 0; ; i++ {
		m, any := 0, false
		for _, p := range passes {
			if i < len(p) {
				m, any = max(m, p[i]), true
			}
		}
		if !any {
			return n
		}
		n += m
	}
}

// stepFloats is a training step's activation footprint in floats: what
// a later phase reads, kept — the patches, the visible patches, every
// block's and both final norms' caches, the two stacks' outputs and the
// loss gradient — and the scratch stack that every phase reuses from
// its bottom.
func stepFloats(cfg Config, batch int) int {
	enc := cfg.Encoder
	t, k, pd, w, dw := enc.Tokens(), cfg.KeepTokens(), enc.PatchDim(), enc.Width, cfg.DecoderWidth
	// re and rd are the encoder's and the decoder's rows, rm the masked
	// rows.
	re, rd, rm := batch*k, batch*t, batch*(t-k)
	kept := rd*pd + re*pd + // patches, visible patches
		enc.Depth*blockFloats(batch, k, w, enc.MLP, enc.Heads) + re*w + re + re*w + // encoder, its norm, its output
		cfg.DecoderDepth*blockFloats(batch, t, dw, 4*dw, cfg.DecoderHeads) + rd*dw + rd + rd*dw + // decoder, its norm, its output
		rm*pd // the loss gradient
	scratch := deepest(
		// the embedded visible patches (the encoder's residual stream),
		// a block's (R × W) slot, then the norm's output, and its GELU
		// output
		[]int{re * w, re * w, re * enc.MLP},
		// the decoder embedding, the assembled decoder input (its
		// stream), a block's slot and its GELU output
		[]int{re * dw, rd * dw, rd * dw, rd * 4 * dw},
		// the prediction, the targets, the masked prediction and target
		[]int{rd * pd, rd * pd, rm * pd, rm * pd},
		// the backward: g0 (the Pred's, the split's and the encoder's
		// input gradients), g1 (dFull, the decoder's, DecEmbed's), then
		// the blocks' narrow and wide transients at the larger of the
		// two stacks' sizes
		[]int{max(rd*dw, re*dw, re*w), max(rd*pd, rd*dw, re*w),
			max(rd*dw, re*w), max(rd*4*dw, re*max(enc.MLP, 3*w))},
	)
	return kept + scratch
}

// TestStepActivationBytes pins a training step's activation footprint —
// the model's recording arena after two steps — to its closed form at
// the tiny config and at pretrain_compute's shape (ViT-3B analog,
// 64-pixel images in 4-pixel patches, batch 16): what the backward reads
// for encoder and decoder, and the one scratch stack holding the gather
// and assembly buffers, the blocks' working set, the gradients passed
// between units and the blocks' transients. Nothing else holds a step's
// activations.
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
		if got := m.ActivationBytes(); got != want {
			t.Errorf("%s: a step holds %d activation bytes, want %d", c.name, got, want)
		}
		t.Logf("%s: %.2f MiB of activations per step", c.name, float64(want)/(1<<20))
	}
}

// poison fills slots slots of each of a's stacks with NaN at n floats
// each — more than any take below — and resets it, so every slot a pass
// then takes, kept or scratch, is reused, stale and oversized.
func poison(a *nn.Arena, slots, n int) {
	for i := 0; i < slots; i++ {
		for _, buf := range [][]float32{a.Take(n), a.Scratch(n)} {
			for j := range buf {
				buf[j] = float32(math.NaN())
			}
		}
	}
	a.Reset()
}

// TestPoisonedArenas: the model's arenas hand out slots holding
// whatever the previous pass left, so every buffer a step or a frozen
// pass takes — the forward's outputs and caches, decIn, g0, g1 and the
// blocks' transients — must be overwritten, never accumulated
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
				if m.ctx.Bytes() != 8*slots*size || m.frozen.Bytes() != 8*slots*size {
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

// poisonScratch overwrites every slot of a's scratch stack, at its full
// capacity, with NaN and leaves the stack's top where it was.
func poisonScratch(a *nn.Arena) {
	mark := a.Mark()
	for {
		buf := a.Scratch(0)
		if cap(buf) == 0 {
			break
		}
		buf = buf[:cap(buf)]
		for j := range buf {
			buf[j] = float32(math.NaN())
		}
	}
	a.Rewind(mark)
}

// TestBackwardReadsOnlyRetained: a step's backward reads only what its
// forward kept. With every scratch slot of the recording arena
// overwritten with NaN between ForwardWithMask and BackwardStep — the
// embedding, the decoder input, the prediction, the targets and every
// block's working set the forward left there — two steps' losses and
// parameter gradients are bitwise those of an unpoisoned run.
func TestBackwardReadsOnlyRetained(t *testing.T) {
	cfg := tinyCfg()
	const batch = 3
	imgs := randImgs(cfg, batch, 23)
	run := func(poisoned bool) uint64 {
		m := New(cfg, rng.New(9))
		var parts []any
		for step := 0; step < 2; step++ {
			parts = append(parts, m.ForwardWithMask(imgs, batch, m.DrawMasks(batch)))
			if poisoned {
				poisonScratch(m.ctx)
			}
			m.BackwardStep()
		}
		for _, p := range m.Params() {
			parts = append(parts, p.Grad)
		}
		return golden.Fingerprint(parts...)
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("poisoned scratch: fingerprint %#x, unpoisoned %#x", got, want)
	}
}
