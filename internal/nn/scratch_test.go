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
	h := rp.x
	for _, b := range rp.enc {
		h = b.Apply(ctx, h, repBatch, repEncTokens)
	}
	rp.dec.Apply(ctx, rp.xDec, repBatch, repDecTokens)
	d := ctx.Take(len(rp.dy))
	rp.dec.Backprop(ctx, d, rp.dy)
	d = d[:len(h)]
	for i := len(rp.enc) - 1; i >= 0; i-- {
		rp.enc[i].Backprop(ctx, d, d)
	}
	out := [][]float32{append([]float32(nil), d...)}
	for _, b := range append(rp.enc, rp.dec) {
		for _, p := range b.Params() {
			out = append(out, append([]float32(nil), p.Grad.Data...))
		}
	}
	return out
}

// TestSharedScratchConcurrentReplicas: two replicas stepping
// concurrently — as in-process ranks do — each take their backward
// transients from their own arena's top, so every step's gradients are
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

// poison fills slots slots of a with NaN at n floats each — more than
// any pass below takes — and resets it, so every slot a pass then takes
// is reused, stale and oversized.
func poison(a *Arena, slots, n int) *Arena {
	for i := 0; i < slots; i++ {
		for j, buf := 0, a.Take(n); j < n; j++ {
			buf[j] = float32(math.NaN())
		}
	}
	a.Reset()
	return a
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
		y := b.Apply(ctx, x, batch, tokens)
		out := [][]float32{append([]float32(nil), y...), b.Apply(frozen, x, batch, tokens)}
		dx := make([]float32, len(x))
		b.Backprop(ctx, dx, dy)
		out = append(out, dx)
		for _, p := range b.Params() {
			out = append(out, p.Grad.Data)
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
	if ctx.Bytes() != 4*slots*n || frozen.Bytes() != 4*slots*n {
		t.Fatal("a take outgrew the poisoned slots")
	}
}
