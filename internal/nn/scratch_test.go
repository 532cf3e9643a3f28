package nn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// replica is a small encoder/decoder-shaped stack: two narrow-row
// blocks and one wider-row, narrower-width block, so one backward walks
// the transient top through both shapes, as an MAE step does. It owns
// its recording arena, as a model replica does.
type replica struct {
	enc     []*Block
	dec     *Block
	x, xDec []float32
	dy      []float32
	ctx     *Arena
}

const (
	repBatch, repEncTokens, repDecTokens = 2, 9, 36
	repEncWidth, repDecWidth             = 32, 16
)

func newReplica() *replica {
	r := rng.New(31)
	rp := &replica{
		enc: []*Block{
			NewBlock("enc0", repEncWidth, 96, 4, r),
			NewBlock("enc1", repEncWidth, 96, 4, r),
		},
		dec:  NewBlock("dec", repDecWidth, 64, 2, r),
		x:    make([]float32, repBatch*repEncTokens*repEncWidth),
		xDec: make([]float32, repBatch*repDecTokens*repDecWidth),
		dy:   make([]float32, repBatch*repDecTokens*repDecWidth),
		ctx:  NewTrainCtx(),
	}
	r.FillNormal(rp.x, 0, 1)
	r.FillNormal(rp.xDec, 0, 1)
	r.FillNormal(rp.dy, 0, 1)
	return rp
}

// step runs one forward and backward through the stack (the decoder's
// gradient stands in for the encoder's upstream gradient, truncated to
// its size; the encoder blocks run in place over it) and returns the
// encoder input gradient and every parameter gradient, accumulated over
// the steps so far.
func (rp *replica) step() [][]float32 {
	ctx := rp.ctx
	ctx.Reset()
	h := ctx.Take(len(rp.x))
	copy(h, rp.x)
	for _, b := range rp.enc {
		b.Apply(ctx, h, repBatch, repEncTokens)
	}
	hDec := ctx.Take(len(rp.xDec))
	copy(hDec, rp.xDec)
	rp.dec.Apply(ctx, hDec, repBatch, repDecTokens)
	d := ctx.Take(len(rp.dy))
	rp.dec.Backprop(ctx, d, rp.dy)
	d = d[:len(h)]
	for i := len(rp.enc) - 1; i >= 0; i-- {
		rp.enc[i].Backprop(ctx, d, d)
	}
	out := [][]float32{append([]float32(nil), d...)}
	for _, b := range append(rp.enc, rp.dec) {
		for _, p := range b.Params() {
			out = append(out, append([]float32(nil), p.Grad...))
		}
	}
	return out
}

// TestSharedScratchConcurrentReplicas: two replicas stepping
// concurrently — as in-process ranks do — each take their backward
// transients from their own arena's scratch top, so every step's gradients are
// bitwise those of a replica stepping alone. Run under -race it also
// checks that no two replicas ever share activation memory.
func TestSharedScratchConcurrentReplicas(t *testing.T) {
	const steps = 3
	solo := newReplica()
	want := make([][][]float32, steps)
	for s := range want {
		want[s] = solo.step()
	}
	got := [2][][][]float32{}
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rp := newReplica()
			for s := 0; s < steps; s++ {
				got[i] = append(got[i], rp.step())
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		for s := range want {
			for j := range want[s] {
				if !bitsEqual(got[i][s][j], want[s][j]) {
					t.Fatalf("replica %d step %d: result %d differs from the replica stepping alone", i, s, j)
				}
			}
		}
	}
}

// poison fills slots slots of each of a's stacks with NaN at n floats
// each — more than any pass below takes — and resets it, so every slot
// a pass then takes, kept or scratch, is reused, stale and oversized.
func poison(a *Arena, slots, n int) *Arena {
	for i := 0; i < slots; i++ {
		for _, buf := range [][]float32{a.Take(n), a.Scratch(n)} {
			for j := range buf {
				buf[j] = float32(math.NaN())
			}
		}
	}
	a.Reset()
	return a
}

// blockOut runs b over a copy of x on ctx and returns the copy, now the
// block's output: Apply out of place, for tests that reuse x.
func blockOut(ctx *Arena, b *Block, x []float32, batch, tokens int) []float32 {
	y := append([]float32(nil), x...)
	b.Apply(ctx, y, batch, tokens)
	return y
}

// TestBlockBackwardOverwritesScratch: an arena hands out slots holding
// whatever the previous pass left, so every kernel writing into a slot
// must overwrite, never accumulate — the forward's outputs and caches
// and the backward's transients alike. Recording and frozen arenas
// poisoned with NaN give bitwise the outputs and gradients of fresh
// ones, and do not grow.
func TestBlockBackwardOverwritesScratch(t *testing.T) {
	const batch, tokens, width, hidden, heads = 2, 23, 24, 80, 4
	run := func(ctx, frozen *Arena) [][]float32 {
		r := rng.New(41)
		b := NewBlock("blk", width, hidden, heads, r)
		x := make([]float32, batch*tokens*width)
		dy := make([]float32, batch*tokens*width)
		r.FillNormal(x, 0, 1)
		r.FillNormal(dy, 0, 1)
		out := [][]float32{blockOut(ctx, b, x, batch, tokens), blockOut(frozen, b, x, batch, tokens)}
		dx := make([]float32, len(x))
		b.Backprop(ctx, dx, dy)
		out = append(out, dx)
		for _, p := range b.Params() {
			out = append(out, p.Grad)
		}
		return out
	}
	const slots, n = 64, 2 * batch * tokens * hidden
	want := run(NewTrainCtx(), NewInferCtx())
	ctx, frozen := poison(NewTrainCtx(), slots, n), poison(NewInferCtx(), slots, n)
	got := run(ctx, frozen)
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("result %d differs on a poisoned arena", i)
		}
	}
	if ctx.Bytes() != 8*slots*n || frozen.Bytes() != 8*slots*n {
		t.Fatal("a take outgrew the poisoned slots")
	}
}

// poisonScratch overwrites every slot of a's scratch stack, at its full
// capacity, with NaN and leaves the stack's top where it was.
func poisonScratch(a *Arena) {
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

// TestBackwardReadsOnlyRetained: a block's backward reads only what its
// forward kept. With every scratch slot overwritten with NaN between
// the forward and the backward — the LayerNorm and GELU outputs, the
// projections and the residual sums the forward left there — the input
// gradient and every parameter gradient are bitwise those of an
// unpoisoned run.
func TestBackwardReadsOnlyRetained(t *testing.T) {
	const batch, tokens, width, hidden, heads = 2, 19, 24, 96, 4
	run := func(poisoned bool) [][]float32 {
		r := rng.New(43)
		b := NewBlock("blk", width, hidden, heads, r)
		x := make([]float32, batch*tokens*width)
		dy := make([]float32, batch*tokens*width)
		r.FillNormal(x, 0, 1)
		r.FillNormal(dy, 0, 1)
		ctx := NewTrainCtx()
		y := blockOut(ctx, b, x, batch, tokens)
		if poisoned {
			poisonScratch(ctx)
		}
		dx := make([]float32, len(x))
		b.Backprop(ctx, dx, dy)
		out := [][]float32{y, dx}
		for _, p := range b.Params() {
			out = append(out, p.Grad)
		}
		return out
	}
	want, got := run(false), run(true)
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("result %d differs when the forward's scratch is poisoned before the backward", i)
		}
	}
}
