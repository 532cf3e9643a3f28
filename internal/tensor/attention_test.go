package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Tolerances for fused-vs-materialized attention agreement. The fused
// path differs from the reference by (a) the float32 polynomial exp
// vs float64 math.Exp, (b) deferred 1/l normalization instead of
// normalizing P before the V product, and (c) tile-ordered summation
// with online max corrections. Each is a few-ulp effect; the
// documented contract is 1e-3 relative on forward outputs and 5e-3 on
// gradients (gradients amplify the dP−D cancellation).
const (
	flashFwdTol = 1e-3
	flashBwdTol = 5e-3
)

// refAttnFwd is the materialized oracle: S = Q·Kᵀ, softmax(scale·S),
// O = P·V through the regular blocked kernels. Returns the
// probability matrix for the backward oracle.
func refAttnFwd(o, q, k, v []float32, t, d int, scale float32) []float32 {
	p := make([]float32, t*t)
	MatMulTB(p, q, k, t, d, t, false)
	SoftmaxScaled(p, p, t, t, scale)
	MatMul(o, p, v, t, t, d, false)
	return p
}

// refAttnBwd is the materialized backward oracle over a cached P.
func refAttnBwd(dq, dk, dv, do_, p, q, k, v []float32, t, d int, scale float32) {
	dp := make([]float32, t*t)
	ds := make([]float32, t*t)
	MatMulTA(dv, p, do_, t, t, d, false)
	MatMulTB(dp, do_, v, t, d, t, false)
	SoftmaxBackwardScaled(ds, p, dp, t, t, scale)
	MatMul(dq, ds, k, t, t, d, false)
	MatMulTA(dk, ds, q, t, t, d, false)
}

func randSlice(r *rand.Rand, n int, scale float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(r.NormFloat64() * scale)
	}
	return s
}

// checkFlashAgainstRef runs fused forward+backward on seeded random
// operands and holds every output to the materialized reference.
func checkFlashAgainstRef(t *testing.T, tok, d int, scale float32, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	q := randSlice(r, tok*d, 1)
	k := randSlice(r, tok*d, 1)
	v := randSlice(r, tok*d, 1)
	do_ := randSlice(r, tok*d, 1)

	oRef := make([]float32, tok*d)
	p := refAttnFwd(oRef, q, k, v, tok, d, scale)

	oF := make([]float32, tok*d)
	stats := make([]float32, 2*tok)
	FlashAttnFwd(oF, d, q, k, v, tok, d, scale, stats)
	if i, ok := relClose(oF, oRef, flashFwdTol); !ok {
		t.Fatalf("T=%d d=%d scale=%g: fused forward diverged at %d: %v vs %v", tok, d, scale, i, oF[i], oRef[i])
	}
	// stats invariant: exp-sums are finite and at least 1 (the row
	// maximum contributes exp(0)), up to rounding.
	for i := 0; i < tok; i++ {
		l := float64(stats[2*i+1])
		if !(l > 0.999) || math.IsInf(l, 0) || math.IsInf(float64(stats[2*i]), 0) {
			t.Fatalf("T=%d d=%d scale=%g: bad stats[%d] = (%v, %v)", tok, d, scale, i, stats[2*i], l)
		}
	}

	dqRef := make([]float32, tok*d)
	dkRef := make([]float32, tok*d)
	dvRef := make([]float32, tok*d)
	refAttnBwd(dqRef, dkRef, dvRef, do_, p, q, k, v, tok, d, scale)

	dq := make([]float32, tok*d)
	dk := make([]float32, tok*d)
	dv := make([]float32, tok*d)
	FlashAttnBwd(dq, dk, dv, d, do_, oF, d, q, k, v, tok, d, scale, stats)
	for _, pair := range []struct {
		name      string
		got, want []float32
	}{{"dQ", dq, dqRef}, {"dK", dk, dkRef}, {"dV", dv, dvRef}} {
		if i, ok := relClose(pair.got, pair.want, flashBwdTol); !ok {
			t.Fatalf("T=%d d=%d scale=%g: fused %s diverged at %d: %v vs %v",
				tok, d, scale, pair.name, i, pair.got[i], pair.want[i])
		}
	}
}

// benchShapes are the heads the end-to-end benchmark runs: the MAE
// decoder and serving encoder at 256 tokens, the masked encoder at 64,
// and the 2-rank workloads' 16- and 4-token sequences.
var benchShapes = []struct{ tok, d int }{{256, 6}, {64, 12}, {256, 16}, {16, 6}, {4, 12}}

// TestFlashAttnProperty holds fused forward+backward to the
// materialized reference across shapes chosen to hit every pad edge:
// T below/at/above the lane width (16), the backward query block (48),
// its key tile (128) and the forward key tile (288); d below/at/above
// one and two row panels (6, 12) and the lane width; the benchmark's
// own shapes; and zero and negative scales.
func TestFlashAttnProperty(t *testing.T) {
	shapes := []struct{ tok, d int }{
		{1, 1}, {2, 3}, {5, 4}, {7, 16}, {13, 8},
		{31, 5}, {47, 64}, {48, 32}, {49, 17},
		{96, 64}, {127, 48}, {128, 64}, {129, 33},
		{197, 64}, {200, 80}, {287, 9}, {289, 6}, {300, 12},
	}
	shapes = append(shapes, benchShapes...)
	for _, d := range []int{5, 6, 7, 11, 12, 13, 18} {
		for _, tok := range []int{1, 15, 16, 17, 47, 49, 129} {
			shapes = append(shapes, struct{ tok, d int }{tok, d})
		}
	}
	for i, sh := range shapes {
		checkFlashAgainstRef(t, sh.tok, sh.d, float32(1/math.Sqrt(float64(sh.d))), int64(7+i))
	}
	for i, sh := range []struct{ tok, d int }{{1, 6}, {17, 6}, {49, 12}, {130, 7}, {256, 6}} {
		checkFlashAgainstRef(t, sh.tok, sh.d, 0, int64(100+i))
		checkFlashAgainstRef(t, sh.tok, sh.d, -0.3, int64(200+i))
	}
}

// TestFlashAttnStrided runs the fused kernels with the strided
// output/gradient layouts nn uses (head tiles inside wider rows) and
// checks the gutters are never touched.
func TestFlashAttnStrided(t *testing.T) {
	tok, d := 53, 24
	ldo, ldqkv := d+13, 3*d+7
	scale := float32(1 / math.Sqrt(float64(d)))
	r := rand.New(rand.NewSource(11))
	q := randSlice(r, tok*d, 1)
	k := randSlice(r, tok*d, 1)
	v := randSlice(r, tok*d, 1)

	const poison = float32(-777)
	o := make([]float32, tok*ldo)
	for i := range o {
		o[i] = poison
	}
	stats := make([]float32, 2*tok)
	FlashAttnFwd(o, ldo, q, k, v, tok, d, scale, stats)

	oRef := make([]float32, tok*d)
	refAttnFwd(oRef, q, k, v, tok, d, scale)
	for i := 0; i < tok; i++ {
		row := o[i*ldo : i*ldo+d]
		if idx, ok := relClose(row, oRef[i*d:(i+1)*d], flashFwdTol); !ok {
			t.Fatalf("strided forward row %d diverged at %d", i, idx)
		}
		for j := d; j < ldo; j++ {
			if o[i*ldo+j] != poison {
				t.Fatalf("forward touched gutter at row %d col %d", i, j)
			}
		}
	}

	do_ := make([]float32, tok*ldo)
	for i := 0; i < tok; i++ {
		copy(do_[i*ldo:i*ldo+d], randSlice(r, d, 1))
	}
	grads := make([]float32, tok*ldqkv)
	for i := range grads {
		grads[i] = poison
	}
	FlashAttnBwd(grads, grads[d:], grads[2*d:], ldqkv, do_, o, ldo, q, k, v, tok, d, scale, stats)
	for i := 0; i < tok; i++ {
		for j := 3 * d; j < ldqkv; j++ {
			if grads[i*ldqkv+j] != poison {
				t.Fatalf("backward touched gutter at row %d col %d", i, j)
			}
		}
	}
}

// TestFlashAttnLdBitwise: reading Q, K and V as strided thirds of a
// fused (T × 3W)-style buffer, with poisoned gutters, gives bitwise the
// output, statistics and gradients of the contiguous call, at shapes
// on both sides of every tile edge; and a forward with nil stats (the
// serving path) writes bitwise the same output.
func TestFlashAttnLdBitwise(t *testing.T) {
	const poison = float32(-777)
	for i, sh := range append([]struct{ tok, d int }{{1, 1}, {17, 5}, {49, 13}, {129, 7}, {300, 6}}, benchShapes...) {
		tok, d := sh.tok, sh.d
		ld := 3*d + 5
		scale := float32(1 / math.Sqrt(float64(d)))
		r := rand.New(rand.NewSource(int64(61 + i)))
		q, k, v, do_ := randSlice(r, tok*d, 1), randSlice(r, tok*d, 1), randSlice(r, tok*d, 1), randSlice(r, tok*d, 1)
		fused := make([]float32, tok*ld)
		for j := range fused {
			fused[j] = poison
		}
		for row := 0; row < tok; row++ {
			copy(fused[row*ld:], q[row*d:(row+1)*d])
			copy(fused[row*ld+d:], k[row*d:(row+1)*d])
			copy(fused[row*ld+2*d:], v[row*d:(row+1)*d])
		}
		before := append([]float32(nil), fused...)

		o, stats := make([]float32, tok*d), make([]float32, 2*tok)
		FlashAttnFwd(o, d, q, k, v, tok, d, scale, stats)
		oLd, statsLd, oNil := make([]float32, tok*d), make([]float32, 2*tok), make([]float32, tok*d)
		FlashAttnFwdLd(oLd, d, fused, fused[d:], fused[2*d:], ld, tok, d, scale, statsLd)
		FlashAttnFwdLd(oNil, d, fused, fused[d:], fused[2*d:], ld, tok, d, scale, nil)

		dq, dk, dv := make([]float32, tok*d), make([]float32, tok*d), make([]float32, tok*d)
		FlashAttnBwd(dq, dk, dv, d, do_, o, d, q, k, v, tok, d, scale, stats)
		grads := make([]float32, tok*3*d)
		FlashAttnBwdLd(grads, grads[d:], grads[2*d:], 3*d, do_, o, d, fused, fused[d:], fused[2*d:], ld, tok, d, scale, stats)
		var dqLd, dkLd, dvLd []float32
		for row := 0; row < tok; row++ {
			g := grads[row*3*d:]
			dqLd, dkLd, dvLd = append(dqLd, g[:d]...), append(dkLd, g[d:2*d]...), append(dvLd, g[2*d:3*d]...)
		}

		for _, pair := range []struct {
			name      string
			got, want []float32
		}{
			{"O", oLd, o}, {"stats", statsLd, stats}, {"O with nil stats", oNil, o},
			{"dQ", dqLd, dq}, {"dK", dkLd, dk}, {"dV", dvLd, dv}, {"fused input", fused, before},
		} {
			for j := range pair.want {
				if math.Float32bits(pair.got[j]) != math.Float32bits(pair.want[j]) {
					t.Fatalf("T=%d d=%d: strided %s[%d] = %v, contiguous %v", tok, d, pair.name, j, pair.got[j], pair.want[j])
				}
			}
		}
	}
}

// TestFlashAttnPanics pins the named validation panics.
func TestFlashAttnPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	q := make([]float32, 8)
	o := make([]float32, 8)
	stats := make([]float32, 4)
	expectPanic("zero shape", func() { FlashAttnFwd(o, 4, q, q, q, 0, 4, 1, stats) })
	expectPanic("short qkv", func() { FlashAttnFwd(o, 4, q[:3], q, q, 2, 4, 1, stats) })
	expectPanic("short out", func() { FlashAttnFwd(o[:5], 4, q, q, q, 2, 4, 1, stats) })
	expectPanic("short stats", func() { FlashAttnFwd(o, 4, q, q, q, 2, 4, 1, stats[:3]) })
	expectPanic("bwd short grad", func() {
		FlashAttnBwd(o[:5], o, o, 4, o, o, 4, q, q, q, 2, 4, 1, stats)
	})
	expectPanic("ldqkv below d", func() { FlashAttnFwdLd(o, 4, q, q, q, 3, 2, 4, 1, stats) })
	expectPanic("short strided qkv", func() { FlashAttnFwdLd(o, 4, q, q, q, 5, 2, 4, 1, stats) })
}

// FuzzFlashAttn fuzzes shapes, scales and data seeds through
// fused-vs-reference forward and backward agreement, extending the
// GEMM property-fuzz pattern to the fused attention path.
func FuzzFlashAttn(f *testing.F) {
	f.Add(uint16(4), uint8(3), uint8(0), int64(1))
	f.Add(uint16(48), uint8(15), uint8(0), int64(2))
	f.Add(uint16(129), uint8(6), uint8(0), int64(3))
	for i, sh := range benchShapes {
		f.Add(uint16(sh.tok-1), uint8(sh.d-1), uint8(0), int64(10+i))
	}
	f.Add(uint16(16), uint8(5), uint8(1), int64(20))   // scale 0
	f.Add(uint16(130), uint8(11), uint8(2), int64(21)) // negative scale
	f.Fuzz(func(t *testing.T, tokRaw uint16, dRaw, scaleSel uint8, seed int64) {
		tok := int(tokRaw)%300 + 1
		d := int(dRaw)%72 + 1
		scale := float32(1 / math.Sqrt(float64(d)))
		switch scaleSel % 3 {
		case 1:
			scale = 0
		case 2:
			scale = -scale
		}
		checkFlashAgainstRef(t, tok, d, scale, seed)
	})
}

// flashTiles collects what a flashTileHook sees into dense (T×T)
// matrices indexed [query][key], one per stage.
type flashTiles struct {
	tok  int
	bwd  bool
	s, p []float32
}

func newFlashTiles(tok int, bwd bool) *flashTiles {
	return &flashTiles{tok: tok, bwd: bwd, s: make([]float32, tok*tok), p: make([]float32, tok*tok)}
}

func (ft *flashTiles) hook(stage byte, i0, j0 int, tile []float32) {
	dst := ft.s
	if stage == 'p' {
		dst = ft.p
	}
	for r := 0; r*nr < len(tile); r++ {
		for lane := 0; lane < nr; lane++ {
			// forward tiles are [key][query lane], backward strips
			// [query][key lane]
			i, j := i0+lane, j0+r
			if ft.bwd {
				i, j = i0+r, j0+lane
			}
			if i < ft.tok && j < ft.tok {
				dst[i*ft.tok+j] = tile[r*nr+lane]
			}
		}
	}
}

// TestFlashBwdRecomputesFwdBitwise pins the invariant the fused
// backward rests on. Its recomputed score tiles are bitwise the
// forward's at every shape, although the two passes swap which operand
// rides the micro-kernel's row axis (same k order per score, and
// FMA(a,b,c) = FMA(b,a,c)). And where one forward tile covers the
// sequence — so the forward's running max is already the final one —
// the backward's probabilities are bitwise the forward's exponentials
// times 1/l.
func TestFlashBwdRecomputesFwdBitwise(t *testing.T) {
	shapes := append([]struct{ tok, d int }{{1, 1}, {17, 5}, {49, 13}, {129, 7}, {197, 64}, {300, 6}}, benchShapes...)
	for i, sh := range shapes {
		tok, d := sh.tok, sh.d
		scale := float32(1 / math.Sqrt(float64(d)))
		r := rand.New(rand.NewSource(int64(31 + i)))
		q, k, v, do_ := randSlice(r, tok*d, 1), randSlice(r, tok*d, 1), randSlice(r, tok*d, 1), randSlice(r, tok*d, 1)
		o := make([]float32, tok*d)
		stats := make([]float32, 2*tok)
		fwd := newFlashTiles(tok, false)
		flashAttnFwd(o, d, q, k, v, d, tok, d, scale, stats, fwd.hook)
		dq, dk, dv := make([]float32, tok*d), make([]float32, tok*d), make([]float32, tok*d)
		bwd := newFlashTiles(tok, true)
		flashAttnBwd(dq, dk, dv, d, do_, o, d, q, k, v, d, tok, d, scale, stats, bwd.hook)

		for idx := range fwd.s {
			if math.Float32bits(fwd.s[idx]) != math.Float32bits(bwd.s[idx]) {
				t.Fatalf("T=%d d=%d: score [%d][%d] forward %v, backward recompute %v",
					tok, d, idx/tok, idx%tok, fwd.s[idx], bwd.s[idx])
			}
		}
		if tok > faFwdBk {
			continue
		}
		for idx := range fwd.p {
			want := fwd.p[idx] * (1 / stats[2*(idx/tok)+1])
			if math.Float32bits(bwd.p[idx]) != math.Float32bits(want) {
				t.Fatalf("T=%d d=%d: P[%d][%d] backward %v, forward exponential/l %v",
					tok, d, idx/tok, idx%tok, bwd.p[idx], want)
			}
		}
	}
}

// TestFlashAttnPoisonPropagates: a NaN or ±Inf anywhere in Q, K or V
// must surface as a non-finite output (and gradient) — the bf16 loss
// scaler's skip-step decision reads nothing else. A NaN in Q poisons
// exactly that query's row; a NaN in K or V poisons every row.
func TestFlashAttnPoisonPropagates(t *testing.T) {
	nonFinite := func(x []float32) int {
		n := 0
		for _, v := range x {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				n++
			}
		}
		return n
	}
	poisons := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, sh := range []struct{ tok, d int }{{5, 6}, {16, 6}, {50, 12}, {131, 7}, {300, 16}} {
		tok, d := sh.tok, sh.d
		scale := float32(1 / math.Sqrt(float64(d)))
		for which := 0; which < 3; which++ {
			for pi, poison := range poisons {
				r := rand.New(rand.NewSource(int64(41 + which)))
				ops := [3][]float32{randSlice(r, tok*d, 1), randSlice(r, tok*d, 1), randSlice(r, tok*d, 1)}
				do_ := randSlice(r, tok*d, 1)
				row := tok / 2
				ops[which][row*d+d/2] = poison
				o := make([]float32, tok*d)
				stats := make([]float32, 2*tok)
				FlashAttnFwd(o, d, ops[0], ops[1], ops[2], tok, d, scale, stats)
				if nonFinite(o) == 0 {
					t.Fatalf("T=%d d=%d: %v in operand %d left the output finite", tok, d, poison, which)
				}
				if pi == 0 {
					if which == 0 && nonFinite(o) != d {
						t.Fatalf("T=%d d=%d: NaN in Q row %d poisoned %d outputs, want that row's %d", tok, d, row, nonFinite(o), d)
					}
					if which == 1 && nonFinite(o) != tok*d {
						t.Fatalf("T=%d d=%d: NaN in K poisoned %d of %d outputs", tok, d, nonFinite(o), tok*d)
					}
				}
				dq, dk, dv := make([]float32, tok*d), make([]float32, tok*d), make([]float32, tok*d)
				FlashAttnBwd(dq, dk, dv, d, do_, o, d, ops[0], ops[1], ops[2], tok, d, scale, stats)
				if nonFinite(dq)+nonFinite(dk)+nonFinite(dv) == 0 {
					t.Fatalf("T=%d d=%d: %v in operand %d left every gradient finite", tok, d, poison, which)
				}
			}
		}
	}
}

// TestSoftmaxScaledBitwise pins the scale-fold contract: folding the
// multiply into the softmax pass is bitwise identical to scaling the
// input in place first (forward), and folding the gradient scale into
// the write pass is bitwise identical to scaling dx afterwards
// (backward). This is what lets the materialized attention path drop
// its separate O(T²) scale sweeps without changing a single bit.
func TestSoftmaxScaledBitwise(t *testing.T) {
	rows, cols := 17, 39
	scale := float32(1 / math.Sqrt(7.0))
	r := rand.New(rand.NewSource(3))
	x := randSlice(r, rows*cols, 2)
	dy := randSlice(r, rows*cols, 1)

	// Old ordering: scale in place, then plain softmax.
	scaled := append([]float32(nil), x...)
	for i := range scaled {
		scaled[i] *= scale
	}
	want := make([]float32, rows*cols)
	Softmax(want, scaled, rows, cols)
	got := make([]float32, rows*cols)
	SoftmaxScaled(got, x, rows, cols, scale)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SoftmaxScaled not bitwise at %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Backward: plain backward then scale dx, vs folded.
	wantDx := make([]float32, rows*cols)
	SoftmaxBackward(wantDx, want, dy, rows, cols)
	for i := range wantDx {
		wantDx[i] *= scale
	}
	gotDx := make([]float32, rows*cols)
	SoftmaxBackwardScaled(gotDx, want, dy, rows, cols, scale)
	for i := range gotDx {
		if gotDx[i] != wantDx[i] {
			t.Fatalf("SoftmaxBackwardScaled not bitwise at %d: %v vs %v", i, gotDx[i], wantDx[i])
		}
	}
}

// TestSoftmaxValidation pins the named panics added to the softmax
// family: undersized buffers (SoftmaxBackward previously had no check
// at all) and degenerate shapes (softmaxRow previously read x[0] of a
// zero-column row and died with a raw index panic).
func TestSoftmaxValidation(t *testing.T) {
	expectTensorPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			msg, ok := r.(string)
			if !ok || len(msg) < 7 || msg[:7] != "tensor:" {
				t.Fatalf("%s: panic %v not tensor:-prefixed", name, r)
			}
		}()
		fn()
	}
	buf := make([]float32, 12)
	expectTensorPanic("SoftmaxBackward short dx", func() {
		SoftmaxBackward(buf[:11], buf, buf, 3, 4)
	})
	expectTensorPanic("SoftmaxBackward short y", func() {
		SoftmaxBackward(buf, buf[:11], buf, 3, 4)
	})
	expectTensorPanic("Softmax zero cols", func() {
		Softmax(buf, buf, 3, 0)
	})
	expectTensorPanic("Softmax negative rows", func() {
		Softmax(buf, buf, -1, 4)
	})
	expectTensorPanic("SoftmaxBackward zero cols", func() {
		SoftmaxBackward(buf, buf, buf, 2, 0)
	})
	// rows == 0 stays a no-op for any cols, as before.
	Softmax(nil, nil, 0, 0)
	SoftmaxBackward(nil, nil, nil, 0, 5)
}
