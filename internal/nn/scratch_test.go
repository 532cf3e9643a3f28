package nn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// replica is a small encoder/decoder-shaped stack: two narrow-row
// blocks and one wider-row, narrower-width block, so one backward walks
// the shared scratch through both shapes, as an MAE step does.
type replica struct {
	enc     []*Block
	dec     *Block
	x, xDec []float32
	dy      []float32
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
	}
	r.FillNormal(rp.x, 0, 1)
	r.FillNormal(rp.xDec, 0, 1)
	r.FillNormal(rp.dy, 0, 1)
	return rp
}

// step runs one forward and backward through the stack (the decoder's
// gradient stands in for the encoder's upstream gradient, truncated to
// its size) and returns the encoder input gradient and every parameter
// gradient, accumulated over the steps so far.
func (rp *replica) step() [][]float32 {
	h := rp.x
	for _, b := range rp.enc {
		h = b.Forward(h, repBatch, repEncTokens)
	}
	rp.dec.Forward(rp.xDec, repBatch, repDecTokens)
	d := rp.dec.Backward(rp.dy)[:len(h)]
	for i := len(rp.enc) - 1; i >= 0; i-- {
		d = rp.enc[i].Backward(d)
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
// concurrently — as in-process ranks do — each borrow their own shared
// backward scratch, so every step's gradients are bitwise those of a
// replica stepping alone. Run under -race it also checks that no two
// backwards ever hold the same scratch.
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

// TestBlockBackwardOverwritesScratch: the scratch a backward borrows
// holds whatever the previous loan left, so every kernel writing into
// it must overwrite. A scratch poisoned with NaN — larger than needed,
// so stale tails exist too — gives bitwise the gradients of a fresh one.
func TestBlockBackwardOverwritesScratch(t *testing.T) {
	const batch, tokens, width, hidden, heads = 2, 23, 24, 80, 4
	run := func(s *scratch) [][]float32 {
		r := rng.New(41)
		b := NewBlock("blk", width, hidden, heads, r)
		x := make([]float32, batch*tokens*width)
		dy := make([]float32, batch*tokens*width)
		r.FillNormal(x, 0, 1)
		r.FillNormal(dy, 0, 1)
		b.Forward(x, batch, tokens)
		out := [][]float32{append([]float32(nil), b.backward(dy, s)...)}
		for _, p := range b.Params() {
			out = append(out, p.Grad.Data)
		}
		return out
	}
	poisoned := &scratch{
		wide:   make([]float32, 2*batch*tokens*hidden),
		narrow: make([]float32, 2*batch*tokens*width),
	}
	for _, buf := range [][]float32{poisoned.wide, poisoned.narrow} {
		for i := range buf {
			buf[i] = float32(math.NaN())
		}
	}
	want, got := run(new(scratch)), run(poisoned)
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("result %d differs with a poisoned scratch", i)
		}
	}
}
