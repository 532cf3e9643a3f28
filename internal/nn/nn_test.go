package nn

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestParamHelpers(t *testing.T) {
	p := NewParam("w", 3, 4)
	if p.NumEl() != 12 {
		t.Fatalf("NumEl=%d", p.NumEl())
	}
	p.Grad.Fill(2)
	p.ZeroGrad()
	for _, v := range p.Grad.Data {
		if v != 0 {
			t.Fatal("ZeroGrad failed")
		}
	}
}

func TestCollectAndCount(t *testing.T) {
	r := rng.New(1)
	l1 := NewLinear("a", 2, 3, r)
	l2 := NewLinear("b", 3, 4, r)
	ps := append(l1.Params(), l2.Params()...)
	if len(ps) != 4 {
		t.Fatalf("params=%d", len(ps))
	}
	if CountParams(ps) != 2*3+3+3*4+4 {
		t.Fatalf("CountParams=%d", CountParams(ps))
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 4)
	copy(p.Grad.Data, []float32{3, 4, 0, 0}) // norm 5
	ps := []*Param{p}
	pre := ClipGradNorm(ps, 1.0)
	if math.Abs(pre-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if post := GradL2Norm(ps); math.Abs(post-1) > 1e-5 {
		t.Fatalf("post-clip norm %v", post)
	}
	// Below the threshold nothing changes.
	copy(p.Grad.Data, []float32{0.3, 0.4, 0, 0})
	ClipGradNorm(ps, 1.0)
	if math.Abs(GradL2Norm(ps)-0.5) > 1e-6 {
		t.Fatal("clip modified small gradient")
	}
}

// TestGradL2NormMatchesFlatWalk: the per-parameter walk over ragged
// tensor sizes is bit for bit the norm of the packed flat gradient,
// taken whole or span by span — what lets the distributed step clip on
// its flat buffer and still match Pretrain exactly.
func TestGradL2NormMatchesFlatWalk(t *testing.T) {
	r := rng.New(9)
	var ps []*Param
	var flat []float32
	for _, n := range []int{5, 64, 1, 129, 7, 2048, 3, 31} {
		p := NewParam("p", n)
		r.FillNormal(p.Grad.Data, 0, 0.3)
		ps = append(ps, p)
		flat = append(flat, p.Grad.Data...)
	}
	flat = append(flat, 0, 0, 0) // a pad tail adds nothing
	want := math.Float64bits(GradL2Norm(ps))
	if got := math.Float64bits(tensor.L2Norm(flat)); got != want {
		t.Fatalf("flat walk %#x, per-parameter walk %#x", got, want)
	}
	for _, cut := range []int{1, 70, 777, len(flat) - 1} {
		var s tensor.SumSq
		s.Add(flat[:cut], 0)
		s.Add(flat[cut:], cut)
		if got := math.Float64bits(math.Sqrt(s.Sum())); got != want {
			t.Fatalf("spans cut at %d: %#x, per-parameter walk %#x", cut, got, want)
		}
	}
}

func TestLinearForwardKnown(t *testing.T) {
	r := rng.New(2)
	l := NewLinear("l", 2, 2, r)
	copy(l.W.Value.Data, []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]] (in×out)
	copy(l.B.Value.Data, []float32{10, 20})
	y := l.Apply(NewInferCtx(), []float32{1, 1}, 1)
	// y = [1+3+10, 2+4+20] = [14, 26]
	if y[0] != 14 || y[1] != 26 {
		t.Fatalf("y=%v", y)
	}
}

func TestLinearBiasNoDecayFlag(t *testing.T) {
	l := NewLinear("l", 2, 2, rng.New(1))
	if l.W.NoWeightDecay {
		t.Fatal("weight must receive decay")
	}
	if !l.B.NoWeightDecay {
		t.Fatal("bias must be excluded from decay")
	}
}

func TestLayerNormOutputMoments(t *testing.T) {
	r := rng.New(3)
	const rows, dim = 16, 64
	ln := NewLayerNorm("ln", dim)
	x := make([]float32, rows*dim)
	r.FillNormal(x, 3, 5)
	y := ln.Apply(NewInferCtx(), x, rows)
	for row := 0; row < rows; row++ {
		seg := y[row*dim : (row+1)*dim]
		mean := tensor.Mean(seg)
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %v", row, mean)
		}
		var variance float64
		for _, v := range seg {
			variance += float64(v) * float64(v)
		}
		variance /= dim
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("row %d variance %v", row, variance)
		}
	}
}

// TestGELUKnownValues pins the activation's edges through both passes
// and both arenas: gelu(±0) = ±0, saturation at ±100 without exp
// overflow, denormals halve, huge finite inputs stay finite in both
// passes, and NaN/±Inf poison the output (the bf16 loss scaler's
// HasNonFinite skip depends on that).
func TestGELUKnownValues(t *testing.T) {
	bits := math.Float32bits
	gelu := func(x float32) (y, d float32) {
		g := NewGELU()
		y = g.Apply(NewTrainCtx(), []float32{x})[0]
		dx := []float32{1}
		g.Backprop(dx, dx)
		if yf := g.Apply(NewInferCtx(), []float32{x})[0]; bits(yf) != bits(y) && !math.IsNaN(float64(y)) {
			t.Errorf("frozen gelu(%g) = %g, recording %g", x, yf, y)
		}
		return y, dx[0]
	}
	zero := float32(0)
	for _, x := range []float32{0, -zero} {
		if y, d := gelu(x); bits(y) != bits(x) || bits(d) != bits(0.5) {
			t.Errorf("gelu(%g) = %g, gelu' = %g; want %g, 0.5", x, y, d, x)
		}
	}
	if y, d := gelu(100); bits(y) != bits(100) || bits(d) != bits(1) {
		t.Errorf("gelu(100) = %g, gelu' = %g; want 100, 1", y, d)
	}
	if y, d := gelu(-100); math.Abs(float64(y)) > 1e-30 || math.Abs(float64(d)) > 1e-30 {
		t.Errorf("gelu(-100) = %g, gelu' = %g; want 0, 0", y, d)
	}
	for _, x := range []float32{1e-45, -1e-45, 1e-40, -1e-40, 1e-38} {
		if y, d := gelu(x); bits(y) != bits(x*0.5) || math.Abs(float64(d)-0.5) > 1e-6 {
			t.Errorf("gelu(%g) = %g, gelu' = %g; want %g, 0.5", x, y, d, x*0.5)
		}
	}
	for _, x := range []float32{1e10, -1e10, 1e15, -1e15, 3e19, -3e19, math.MaxFloat32, -math.MaxFloat32} {
		wantY, wantD := x, float32(1)
		if x < 0 {
			wantY, wantD = 0, 0
		}
		if y, d := gelu(x); math.Abs(float64(y-wantY)) > 0 || math.Abs(float64(d-wantD)) > 0 {
			t.Errorf("gelu(%g) = %g, gelu' = %g; want %g, %g", x, y, d, wantY, wantD)
		}
	}
	inf := float32(math.Inf(1))
	for _, x := range []float32{float32(math.NaN()), inf, -inf} {
		y, d := gelu(x)
		for _, v := range []float32{y, d} {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				t.Errorf("gelu/gelu'(%g) = %g, want non-finite", x, v)
			}
		}
	}
}

func TestAttentionOutputShapeAndFiniteness(t *testing.T) {
	r := rng.New(4)
	const batch, tokens, width, heads = 3, 7, 16, 4
	a := NewMultiHeadAttention("attn", width, heads, r)
	x := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)
	y := a.Apply(NewInferCtx(), x, batch, tokens)
	if len(y) != batch*tokens*width {
		t.Fatalf("len(y)=%d", len(y))
	}
	for _, v := range y {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite attention output")
		}
	}
}

func TestAttentionHeadDivisibilityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for indivisible heads")
		}
	}()
	NewMultiHeadAttention("a", 10, 3, rng.New(1))
}

func TestAttentionBatchIndependence(t *testing.T) {
	// Two different sequences processed in one batch must produce the
	// same outputs as when processed separately — attention must not
	// leak across the batch dimension.
	r := rng.New(5)
	const tokens, width, heads = 4, 8, 2
	a := NewMultiHeadAttention("attn", width, heads, r)

	x1 := make([]float32, tokens*width)
	x2 := make([]float32, tokens*width)
	r.FillNormal(x1, 0, 1)
	r.FillNormal(x2, 0, 1)

	joint := append(append([]float32{}, x1...), x2...)
	ctx := NewInferCtx()
	yj := a.Apply(ctx, joint, 2, tokens)
	y1 := a.Apply(ctx, x1, 1, tokens)
	y2 := a.Apply(ctx, x2, 1, tokens)

	for i := range y1 {
		if math.Abs(float64(yj[i]-y1[i])) > 1e-5 {
			t.Fatalf("batch leakage in first sequence at %d", i)
		}
	}
	for i := range y2 {
		if math.Abs(float64(yj[tokens*width+i]-y2[i])) > 1e-5 {
			t.Fatalf("batch leakage in second sequence at %d", i)
		}
	}
}

func TestPatchifyRoundTrip(t *testing.T) {
	r := rng.New(6)
	const batch, h, w, c, ps = 2, 8, 12, 3, 4
	imgs := make([]float32, batch*h*w*c)
	r.FillNormal(imgs, 0, 1)
	patches := make([]float32, batch*(h/ps)*(w/ps)*ps*ps*c)
	Patchify(patches, imgs, batch, h, w, c, ps)
	back := make([]float32, len(imgs))
	UnpatchifyAdd(back, patches, batch, h, w, c, ps)
	for i := range imgs {
		if imgs[i] != back[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

func TestPatchifyDivisibilityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Patchify(make([]float32, 100), make([]float32, 100), 1, 10, 10, 1, 3)
}

func TestPatchifyPreservesEnergyProperty(t *testing.T) {
	// Property: patchify is a permutation, so the sum of squares is
	// preserved for any image content.
	r := rng.New(7)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		const batch, h, w, c, ps = 1, 6, 6, 2, 3
		imgs := make([]float32, batch*h*w*c)
		rr.FillNormal(imgs, 0, 1)
		patches := make([]float32, len(imgs))
		Patchify(patches, imgs, batch, h, w, c, ps)
		var a, b float64
		for i := range imgs {
			a += float64(imgs[i]) * float64(imgs[i])
			b += float64(patches[i]) * float64(patches[i])
		}
		return math.Abs(a-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestSinCos2DProperties(t *testing.T) {
	const dim, gh, gw = 16, 3, 4
	pos := SinCos2D(dim, gh, gw)
	if len(pos) != gh*gw*dim {
		t.Fatalf("len=%d", len(pos))
	}
	// All rows distinct (positional encodings must disambiguate grid cells).
	for i := 0; i < gh*gw; i++ {
		for j := i + 1; j < gh*gw; j++ {
			same := true
			for k := 0; k < dim; k++ {
				if pos[i*dim+k] != pos[j*dim+k] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("positions %d and %d identical", i, j)
			}
		}
	}
	// Values bounded by 1 in magnitude.
	for _, v := range pos {
		if v > 1 || v < -1 {
			t.Fatalf("value %v out of [-1,1]", v)
		}
	}
}

func TestSinCos2DDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for dim%4 != 0")
		}
	}()
	SinCos2D(10, 2, 2)
}

func TestNormalizePatches(t *testing.T) {
	r := rng.New(8)
	const n, d = 5, 32
	src := make([]float32, n*d)
	r.FillNormal(src, 4, 3)
	dst := make([]float32, n*d)
	NormalizePatches(dst, src, n, d, 1e-6)
	for p := 0; p < n; p++ {
		row := dst[p*d : (p+1)*d]
		if m := tensor.Mean(row); math.Abs(m) > 1e-4 {
			t.Fatalf("patch %d mean %v", p, m)
		}
		var variance float64
		for _, v := range row {
			variance += float64(v) * float64(v)
		}
		variance /= d
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("patch %d variance %v", p, variance)
		}
	}
}

func TestNormalizePatchesConstantPatch(t *testing.T) {
	src := []float32{5, 5, 5, 5}
	dst := make([]float32, 4)
	NormalizePatches(dst, src, 1, 4, 1e-6)
	for _, v := range dst {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("constant patch produced non-finite values")
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	// Extremely confident correct logits → loss near zero.
	logits := []float32{100, 0, 0, 0, 100, 0}
	labels := []int{0, 1}
	d := make([]float32, 6)
	loss := CrossEntropy(logits, labels, 3, d)
	if loss > 1e-5 {
		t.Fatalf("loss=%v for perfect prediction", loss)
	}
}

func TestCrossEntropyUniformBaseline(t *testing.T) {
	// Uniform logits → loss = ln(classes).
	const classes = 7
	logits := make([]float32, classes)
	d := make([]float32, classes)
	loss := CrossEntropy(logits, []int{3}, classes, d)
	if math.Abs(loss-math.Log(classes)) > 1e-5 {
		t.Fatalf("loss=%v want ln(%d)=%v", loss, classes, math.Log(classes))
	}
}

func TestMSEZeroForIdentical(t *testing.T) {
	a := []float32{1, 2, 3}
	d := make([]float32, 3)
	if MSE(a, a, d) != 0 {
		t.Fatal("MSE(x,x) != 0")
	}
	for _, v := range d {
		if v != 0 {
			t.Fatal("gradient nonzero for identical inputs")
		}
	}
}

// TestMSEOneValueAtAnyWorkerCount: the loss a run reports must not
// depend on scheduling. 4608 elements is five reduction blocks; the sum
// is the same on every one of a thousand calls with eight workers
// racing, and the same at every GOMAXPROCS.
func TestMSEOneValueAtAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 4608
	r := rng.New(21)
	pred, target, dpred := make([]float32, n), make([]float32, n), make([]float32, n)
	r.FillNormal(pred, 0, 1)
	r.FillNormal(target, 0, 1)
	runtime.GOMAXPROCS(1)
	want := MSE(pred, target, dpred)
	wantGrad := append([]float32(nil), dpred...)
	for _, procs := range []int{2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		calls := 1
		if procs == 8 {
			calls = 1000
		}
		for c := 0; c < calls; c++ {
			if got := MSE(pred, target, dpred); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("GOMAXPROCS=%d call %d: MSE = %v, GOMAXPROCS=1 gave %v", procs, c, got, want)
			}
		}
		if !bitsEqual(dpred, wantGrad) {
			t.Fatalf("GOMAXPROCS=%d: gradient differs from GOMAXPROCS=1", procs)
		}
	}
}

func BenchmarkBlockForwardBackward(b *testing.B) {
	r := rng.New(1)
	const batch, tokens, width, hidden, heads = 8, 16, 64, 256, 4
	blk := NewBlock("b", width, hidden, heads, r)
	x := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)
	dy := make([]float32, batch*tokens*width)
	r.FillNormal(dy, 0, 1)
	dx := make([]float32, len(x))
	ctx := NewTrainCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		blk.Apply(ctx, x, batch, tokens)
		blk.Backprop(ctx, dx, dy)
	}
}
