package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// gradCheck compares the analytic input gradient and all parameter
// gradients of a layer against central finite differences of a scalar
// loss L = Σ c_i · y_i with fixed random coefficients c.
//
// forward must run the layer on x and return y; backward must run the
// layer's backward on dy and return dx, or nil for a layer that
// computes no input gradient. params lists the layer's parameters. tol
// is the relative tolerance.
func gradCheck(t *testing.T, name string, x []float32, outLen int,
	forward func(x []float32) []float32,
	backward func(dy []float32) []float32,
	params []*Param, tol float64) {
	t.Helper()
	r := rng.New(999)
	coef := make([]float32, outLen)
	r.FillNormal(coef, 0, 1)

	loss := func() float64 {
		y := forward(x)
		var s float64
		for i := range coef {
			s += float64(coef[i]) * float64(y[i])
		}
		return s
	}

	// Analytic gradients.
	ZeroGrads(params)
	_ = forward(x)
	dy := make([]float32, outLen)
	copy(dy, coef)
	dx := backward(dy)

	const h = 1e-2
	check := func(label string, vals []float32, analytic []float32, idxs []int) {
		for _, i := range idxs {
			orig := vals[i]
			vals[i] = orig + h
			lp := loss()
			vals[i] = orig - h
			lm := loss()
			vals[i] = orig
			num := (lp - lm) / (2 * h)
			got := float64(analytic[i])
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/scale > tol {
				t.Errorf("%s %s[%d]: numeric %v analytic %v", name, label, i, num, got)
			}
		}
	}

	// Check a sample of input positions.
	idxs := sampleIdx(r, len(x), 12)
	if dx != nil {
		check("dx", x, dx, idxs)
	}

	for _, p := range params {
		pi := sampleIdx(r, p.NumEl(), 8)
		check(p.Name, p.Value.Data, p.Grad.Data, pi)
	}
}

func sampleIdx(r *rng.RNG, n, k int) []int {
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	return perm[:k]
}

// recorded returns gradCheck's forward for one layer's Apply on a
// recording arena, reset every call, and the arena its backward takes
// transients from.
func recorded(apply func(ctx *Arena, x []float32) []float32) (func([]float32) []float32, *Arena) {
	ctx := NewTrainCtx()
	return func(x []float32) []float32 {
		ctx.Reset()
		return apply(ctx, x)
	}, ctx
}

// into returns gradCheck's backward for a Backprop writing dL/dx into
// a fresh n-float buffer.
func into(n int, backprop func(dx, dy []float32)) func([]float32) []float32 {
	return func(dy []float32) []float32 {
		dx := make([]float32, n)
		backprop(dx, dy)
		return dx
	}
}

func TestLinearGradients(t *testing.T) {
	r := rng.New(1)
	const rows, in, out = 5, 7, 4
	l := NewLinear("lin", in, out, r)
	x := make([]float32, rows*in)
	r.FillNormal(x, 0, 1)
	fwd, _ := recorded(func(ctx *Arena, x []float32) []float32 { return l.Apply(ctx, x, rows) })
	gradCheck(t, "Linear", x, rows*out, fwd, into(len(x), l.Backprop), l.Params(), 1e-2)
}

func TestLayerNormGradients(t *testing.T) {
	r := rng.New(2)
	const rows, dim = 6, 8
	ln := NewLayerNorm("ln", dim)
	// Non-trivial gamma/beta so their gradients are exercised.
	ln.Gamma.Value.RandnInit(r, 1)
	ln.Beta.Value.RandnInit(r, 1)
	x := make([]float32, rows*dim)
	r.FillNormal(x, 0, 2)
	fwd, _ := recorded(func(ctx *Arena, x []float32) []float32 { return ln.Apply(ctx, x, rows) })
	gradCheck(t, "LayerNorm", x, rows*dim, fwd, into(len(x), ln.Backprop), ln.Params(), 2e-2)
}

func TestGELUGradients(t *testing.T) {
	r := rng.New(3)
	g := NewGELU()
	x := make([]float32, 50)
	r.FillNormal(x, 0, 2)
	fwd, _ := recorded(g.Apply)
	gradCheck(t, "GELU", x, len(x), fwd, into(len(x), g.Backprop), nil, 1e-2)
}

func TestAttentionGradients(t *testing.T) {
	r := rng.New(4)
	const batch, tokens, width, heads = 2, 5, 8, 2
	a := NewMultiHeadAttention("attn", width, heads, r)
	x := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)
	fwd, ctx := recorded(func(ctx *Arena, x []float32) []float32 { return a.Apply(ctx, x, batch, tokens) })
	gradCheck(t, "MHA", x, batch*tokens*width, fwd,
		into(len(x), func(dx, dy []float32) { a.Backprop(ctx, dx, dy) }), a.Params(), 2e-2)
}

func TestMLPGradients(t *testing.T) {
	r := rng.New(5)
	const rows, width, hidden = 4, 6, 10
	m := NewMLP("mlp", width, hidden, r)
	x := make([]float32, rows*width)
	r.FillNormal(x, 0, 1)
	fwd, ctx := recorded(func(ctx *Arena, x []float32) []float32 { return m.Apply(ctx, x, rows) })
	gradCheck(t, "MLP", x, rows*width, fwd,
		into(len(x), func(dx, dy []float32) { m.Backprop(ctx, dx, dy) }), m.Params(), 1e-2)
}

func TestBlockGradients(t *testing.T) {
	r := rng.New(6)
	const batch, tokens, width, hidden, heads = 2, 4, 8, 12, 2
	b := NewBlock("blk", width, hidden, heads, r)
	x := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)
	fwd, ctx := recorded(func(ctx *Arena, x []float32) []float32 { return b.Apply(ctx, x, batch, tokens) })
	gradCheck(t, "Block", x, batch*tokens*width, fwd,
		into(len(x), func(dx, dy []float32) { b.Backprop(ctx, dx, dy) }), b.Params(), 3e-2)
}

func TestPatchEmbedGradients(t *testing.T) {
	r := rng.New(7)
	const batch, gridH, gridW, patchDim, width = 2, 2, 3, 5, 8
	pe := NewPatchEmbed("pe", patchDim, width, gridH, gridW, r)
	x := make([]float32, batch*gridH*gridW*patchDim)
	r.FillNormal(x, 0, 1)
	fwd, _ := recorded(func(ctx *Arena, x []float32) []float32 { return pe.Apply(ctx, x, batch) })
	gradCheck(t, "PatchEmbed", x, batch*gridH*gridW*width, fwd,
		func(dy []float32) []float32 { pe.Backprop(dy); return nil },
		pe.Params(), 1e-2)
}

func TestCrossEntropyGradient(t *testing.T) {
	r := rng.New(8)
	const batch, classes = 6, 5
	logits := make([]float32, batch*classes)
	r.FillNormal(logits, 0, 2)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	dlogits := make([]float32, batch*classes)
	_ = CrossEntropy(logits, labels, classes, dlogits)

	const h = 1e-3
	scratch := make([]float32, batch*classes)
	for i := range logits {
		orig := logits[i]
		logits[i] = orig + h
		lp := CrossEntropy(logits, labels, classes, scratch)
		logits[i] = orig - h
		lm := CrossEntropy(logits, labels, classes, scratch)
		logits[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(dlogits[i])) > 1e-3 {
			t.Fatalf("dlogits[%d]: numeric %v analytic %v", i, num, dlogits[i])
		}
	}
}

func TestMSEGradient(t *testing.T) {
	r := rng.New(9)
	pred := make([]float32, 40)
	target := make([]float32, 40)
	r.FillNormal(pred, 0, 1)
	r.FillNormal(target, 0, 1)
	dpred := make([]float32, 40)
	loss := MSE(pred, target, dpred)
	if loss <= 0 {
		t.Fatal("MSE of distinct vectors must be positive")
	}
	const h = 1e-3
	scratch := make([]float32, 40)
	for _, i := range []int{0, 7, 39} {
		orig := pred[i]
		pred[i] = orig + h
		lp := MSE(pred, target, scratch)
		pred[i] = orig - h
		lm := MSE(pred, target, scratch)
		pred[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(dpred[i])) > 1e-4 {
			t.Fatalf("dpred[%d]: numeric %v analytic %v", i, num, dpred[i])
		}
	}
}
