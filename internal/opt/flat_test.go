package opt

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func randParams(r *rng.RNG) []*nn.Param {
	shapes := [][]int{{3, 5}, {7}, {2, 2, 2}, {11}}
	var ps []*nn.Param
	for i, s := range shapes {
		p := nn.NewParam("p", s...)
		r.FillUniform(p.Value.Data, -1, 1)
		r.FillUniform(p.Grad.Data, -0.1, 0.1)
		if i%2 == 1 {
			p.NoWeightDecay = true
		}
		ps = append(ps, p)
	}
	return ps
}

func TestPackUnpackRoundTrip(t *testing.T) {
	r := rng.New(3)
	ps := randParams(r)
	dim := FlatDim(ps)
	if want := 15 + 7 + 8 + 11; dim != want {
		t.Fatalf("FlatDim=%d want %d", dim, want)
	}
	flat := make([]float32, PadTo(dim, 4))
	PackValues(flat, ps)
	// Mutate the params, then restore from the flat copy.
	orig := append([]float32(nil), flat[:dim]...)
	for _, p := range ps {
		for i := range p.Value.Data {
			p.Value.Data[i] = -99
		}
	}
	UnpackValues(ps, flat)
	check := make([]float32, dim)
	PackValues(check, ps)
	for i := range check {
		if check[i] != orig[i] {
			t.Fatalf("value round trip differs at %d", i)
		}
	}

	PackGrads(flat, ps)
	g0 := ps[0].Grad.Data[0]
	ps[0].Grad.Data[0] = 1234
	UnpackGrads(ps, flat)
	if ps[0].Grad.Data[0] != g0 {
		t.Fatalf("grad round trip differs")
	}
}

func TestPadTo(t *testing.T) {
	cases := []struct{ n, world, want int }{
		{10, 1, 10}, {10, 4, 12}, {12, 4, 12}, {0, 4, 0}, {1, 8, 8},
	}
	for _, c := range cases {
		if got := PadTo(c.n, c.world); got != c.want {
			t.Fatalf("PadTo(%d,%d)=%d want %d", c.n, c.world, got, c.want)
		}
	}
}

// TestShardedAdamWMatchesAdamW drives AdamW and a set of ShardedAdamW
// instances covering the flat space with identical gradients and checks
// the resulting weights are bit-identical — the ZeRO-1 invariant that
// sharding optimizer state must not change the update.
func TestShardedAdamWMatchesAdamW(t *testing.T) {
	const world = 4
	const steps = 5
	const wd = 0.05

	ref := randParams(rng.New(17))
	shard := randParams(rng.New(17)) // identical initial state

	refOpt := NewAdamW(ref, wd)

	dim := FlatDim(shard)
	padded := PadTo(dim, world)
	flatW := make([]float32, padded)
	flatG := make([]float32, padded)
	PackValues(flatW, shard)
	shardLen := padded / world
	var opts []*ShardedAdamW
	for k := 0; k < world; k++ {
		opts = append(opts, NewShardedAdamW(shard, wd, k*shardLen, (k+1)*shardLen))
	}

	r := rng.New(23)
	for s := 0; s < steps; s++ {
		// Fresh identical gradients on both sides.
		for i, p := range ref {
			r.FillUniform(p.Grad.Data, -0.2, 0.2)
			copy(shard[i].Grad.Data, p.Grad.Data)
		}
		lr := 0.01 * float64(s+1)
		refOpt.Step(lr)

		PackGrads(flatG, shard)
		for k, o := range opts {
			lo, hi := k*shardLen, (k+1)*shardLen
			o.Step(lr, flatW[lo:hi], flatG[lo:hi])
		}
	}
	UnpackValues(shard, flatW)
	for i := range ref {
		for j := range ref[i].Value.Data {
			if ref[i].Value.Data[j] != shard[i].Value.Data[j] {
				t.Fatalf("param %d elem %d: AdamW %v, sharded %v",
					i, j, ref[i].Value.Data[j], shard[i].Value.Data[j])
			}
		}
	}
	// Padding must have stayed zero.
	for i := dim; i < padded; i++ {
		if flatW[i] != 0 {
			t.Fatalf("pad element %d became %v", i, flatW[i])
		}
	}
}

// TestSpanHelpers: gather and scrub over bucket-granular ownership.
func TestSpanHelpers(t *testing.T) {
	buf := make([]float32, 16)
	for i := range buf {
		buf[i] = float32(i + 1)
	}
	spans := []Span{{2, 5}, {8, 10}, {15, 16}}
	if got := SpansLen(spans); got != 6 {
		t.Fatalf("SpansLen=%d want 6", got)
	}
	shard := make([]float32, 6)
	GatherSpans(shard, buf, spans)
	want := []float32{3, 4, 5, 9, 10, 16}
	for i := range want {
		if shard[i] != want[i] {
			t.Fatalf("gathered[%d]=%v want %v", i, shard[i], want[i])
		}
	}
	out := append([]float32(nil), buf...)
	ScrubOutsideSpans(out, spans)
	for i, v := range out {
		owned := (i >= 2 && i < 5) || (i >= 8 && i < 10) || i == 15
		if !owned && v != 0 {
			t.Fatalf("scrub left unowned element %d = %v", i, v)
		}
		if owned && v != buf[i] {
			t.Fatalf("scrub changed owned element %d", i)
		}
	}
}

// TestSpansOutOfRangePanics: a span list that is not ascending and
// disjoint within the buffer fails loudly instead of scrubbing or
// gathering the wrong elements.
func TestSpansOutOfRangePanics(t *testing.T) {
	buf := make([]float32, 4)
	for name, fn := range map[string]func(){
		"scrub past the end": func() { ScrubOutsideSpans(buf, []Span{{2, 8}}) },
		"scrub overlapping":  func() { ScrubOutsideSpans(buf, []Span{{0, 3}, {2, 4}}) },
		"gather inverted":    func() { GatherSpans(make([]float32, 1), buf, []Span{{3, 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestShardedAdamWSpansMatchesContiguous: a spans optimizer over chunk
// idx of every bucket must update exactly the same flat elements to
// exactly the same values as running AdamW over the whole space and
// reading off those elements — including the NoWeightDecay mask across
// straddled parameter boundaries and the shared bias-correction step.
func TestShardedAdamWSpansMatchesContiguous(t *testing.T) {
	r := rng.New(11)
	ps := randParams(r)
	dim := FlatDim(ps)
	padded := PadTo(dim, 8) // 2 buckets × 4-way chunking
	const buckets, shards = 2, 4
	be := padded / buckets
	cl := be / shards
	flatW := make([]float32, padded)
	flatG := make([]float32, padded)
	PackValues(flatW, ps)
	PackGrads(flatG, ps)

	// Reference: full-range sharded AdamW (proven equal to AdamW by
	// TestShardedAdamWMatchesFull-style coverage elsewhere).
	refW := append([]float32(nil), flatW...)
	refG := append([]float32(nil), flatG...)
	ref := NewShardedAdamW(ps, 0.05, 0, padded)
	for step := 0; step < 3; step++ {
		ref.Step(1e-2, refW, refG)
	}

	for idx := 0; idx < shards; idx++ {
		spans := []Span{}
		for b := 0; b < buckets; b++ {
			lo := b*be + idx*cl
			spans = append(spans, Span{lo, lo + cl})
		}
		opt := NewShardedAdamWSpans(ps, 0.05, spans)
		w := make([]float32, SpansLen(spans))
		g := make([]float32, SpansLen(spans))
		GatherSpans(w, flatW, spans)
		GatherSpans(g, flatG, spans)
		for step := 0; step < 3; step++ {
			opt.Step(1e-2, w, g)
		}
		want := make([]float32, SpansLen(spans))
		GatherSpans(want, refW, spans)
		for i := range want {
			if w[i] != want[i] {
				t.Fatalf("shard %d local element %d: spans update %v, reference %v", idx, i, w[i], want[i])
			}
		}

		// The same update in place on whole flat buffers (and mixed:
		// shard-local weights under a flat gradient, the bf16 master's
		// layout) touches the owned spans only and lands on the same bits.
		inPlace := NewShardedAdamWSpans(ps, 0.05, spans)
		mixed := NewShardedAdamWSpans(ps, 0.05, spans)
		fw := append([]float32(nil), flatW...)
		mw := make([]float32, SpansLen(spans))
		GatherSpans(mw, flatW, spans)
		for step := 0; step < 3; step++ {
			inPlace.Step(1e-2, fw, flatG)
			mixed.Step(1e-2, mw, flatG)
		}
		got := make([]float32, SpansLen(spans))
		GatherSpans(got, fw, spans)
		for i := range want {
			if got[i] != want[i] || mw[i] != want[i] {
				t.Fatalf("shard %d local element %d: in-place %v, mixed %v, reference %v", idx, i, got[i], mw[i], want[i])
			}
		}
		k := 0
		for i := range fw {
			for k < len(spans) && i >= spans[k].Hi {
				k++
			}
			if owned := k < len(spans) && i >= spans[k].Lo; !owned && fw[i] != flatW[i] {
				t.Fatalf("shard %d: in-place step wrote unowned flat element %d", idx, i)
			}
		}
	}
}

// TestStepScaledMatchesSeparatePasses: the clip factor, the bf16
// working copy and its bf16 image folded into the kernel's one pass
// land on the bits of the walks they replace — Scale the gradient,
// Step, RoundBF16 the master into the owned spans of the working
// weights, ToBF16 those into the image — in the training step's layout
// (shard-local master, flat gradient, working copy and image), leaving
// the gradient and every unowned working and image element as they
// were.
func TestStepScaledMatchesSeparatePasses(t *testing.T) {
	r := rng.New(17)
	ps := randParams(r)
	padded := PadTo(FlatDim(ps), 8)
	flatW := make([]float32, padded)
	flatG := make([]float32, padded)
	PackValues(flatW, ps)
	PackGrads(flatG, ps)
	spans := []Span{{3, 14}, {17, 25}, {padded - 2, padded}}
	n := SpansLen(spans)
	const gScale = float32(0.37)
	const unowned = 0xdead

	fused, separate := NewShardedAdamWSpans(ps, 0.05, spans), NewShardedAdamWSpans(ps, 0.05, spans)
	master, wantMaster := make([]float32, n), make([]float32, n)
	GatherSpans(master, flatW, spans)
	copy(wantMaster, master)
	working := append([]float32(nil), flatW...)
	image := make([]uint16, padded)
	for i := range image {
		image[i] = unowned
	}
	g := append([]float32(nil), flatG...)
	scaledG := make([]float32, padded)
	tensor.Scale(scaledG, flatG, gScale)
	for step := 0; step < 3; step++ {
		fused.StepScaled(1e-2, master, g, gScale, working, image, nil)
		separate.Step(1e-2, wantMaster, scaledG)
	}
	wantWorking := append([]float32(nil), flatW...)
	wantImage := make([]uint16, padded)
	for i := range wantImage {
		wantImage[i] = unowned
	}
	off := 0
	for _, sp := range spans {
		tensor.RoundBF16(wantWorking[sp.Lo:sp.Hi], wantMaster[off:off+sp.Len()])
		tensor.ToBF16(wantImage[sp.Lo:sp.Hi], wantWorking[sp.Lo:sp.Hi])
		off += sp.Len()
	}
	for i := range master {
		if master[i] != wantMaster[i] {
			t.Fatalf("master[%d] = %v, separate passes give %v", i, master[i], wantMaster[i])
		}
	}
	for i := range working {
		if working[i] != wantWorking[i] {
			t.Fatalf("working[%d] = %v, separate passes give %v", i, working[i], wantWorking[i])
		}
		if image[i] != wantImage[i] {
			t.Fatalf("image[%d] = %#x, separate passes give %#x", i, image[i], wantImage[i])
		}
		if g[i] != flatG[i] {
			t.Fatalf("gradient element %d was written", i)
		}
	}
}

// TestStepScaledSpanDone: spanDone reports every owned span once, in
// order, and only after all of its outputs are final for the step —
// also for spans that share a kernel run with a neighbour (adjacent,
// same decay rule) and for an empty span.
func TestStepScaledSpanDone(t *testing.T) {
	ps := randParams(rng.New(19))
	padded := PadTo(FlatDim(ps), 8)
	for _, spans := range [][]Span{
		{{0, 5}, {5, 9}, {20, 30}, {padded - 2, padded}}, // 0..15 is one parameter: the first two merge
		{{2, 2}, {4, 18}, {18, 18}, {30, 40}},
		{{0, padded}},
	} {
		a := NewShardedAdamWSpans(ps, 0.05, spans)
		w, g := make([]float32, padded), make([]float32, padded)
		PackValues(w, ps)
		PackGrads(g, ps)
		working, image := make([]float32, padded), make([]uint16, padded)
		var order []int
		var seen [][]uint16 // image of span i when it was reported
		for step := 0; step < 2; step++ {
			order, seen = order[:0], seen[:0]
			a.StepScaled(1e-2, w, g, 1, working, image, func(i int) {
				order = append(order, i)
				seen = append(seen, append([]uint16(nil), image[spans[i].Lo:spans[i].Hi]...))
			})
		}
		if len(order) != len(spans) {
			t.Fatalf("spans %v: reported %v", spans, order)
		}
		for i, sp := range spans {
			if order[i] != i {
				t.Fatalf("spans %v: reported %v, want ascending", spans, order)
			}
			for j, b := range seen[i] {
				if b != image[sp.Lo+j] || b != tensor.BF16FromF32(w[sp.Lo+j]) {
					t.Fatalf("spans %v: span %d reported before flat element %d was written", spans, i, sp.Lo+j)
				}
			}
		}
	}
}
