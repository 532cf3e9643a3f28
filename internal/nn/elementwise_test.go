package nn

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// The serial whole-activation loops Linear and LayerNorm ran before
// their bias add and parameter-gradient reductions moved onto the
// pool, kept as test-only oracles.

func serialAddBias(y, b []float32, rows int) {
	n := len(b)
	for i := 0; i < rows; i++ {
		yi := y[i*n : (i+1)*n]
		for j := range yi {
			yi[j] += b[j]
		}
	}
}

func serialColumnSums(db, dy []float32, rows int) {
	n := len(db)
	for i := 0; i < rows; i++ {
		dyi := dy[i*n : (i+1)*n]
		for j := range dyi {
			db[j] += dyi[j]
		}
	}
}

func serialLayerNormParamGrads(dg, db, dy, xhat []float32, rows int) {
	d := len(dg)
	for r := 0; r < rows; r++ {
		dyr := dy[r*d : (r+1)*d]
		xh := xhat[r*d : (r+1)*d]
		for j := range dyr {
			dg[j] += dyr[j] * xh[j]
			db[j] += dyr[j]
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBiasAndParamGradsMatchSerialLoops: the pooled bias add and the
// column-owned reductions are bitwise the serial loops at every worker
// count, on shapes that split unevenly and on ones too small to split.
func TestBiasAndParamGradsMatchSerialLoops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for _, s := range []struct{ rows, in, out int }{{1, 3, 5}, {7, 16, 33}, {300, 24, 192}, {2050, 8, 67}} {
			r := rng.New(uint64(11 + s.rows))
			l := NewLinear("l", s.in, s.out, r)
			r.FillNormal(l.B.Value, 0, 1)
			x := make([]float32, s.rows*s.in)
			dy := make([]float32, s.rows*s.out)
			r.FillNormal(x, 0, 1)
			r.FillNormal(dy, 0, 1)
			r.FillNormal(l.B.Grad, 0, 1) // reductions accumulate onto what is there

			wantY := make([]float32, s.rows*s.out)
			tensor.MatMul(wantY, x, l.W.Value, s.rows, s.in, s.out, false)
			serialAddBias(wantY, l.B.Value, s.rows)
			wantDB := append([]float32(nil), l.B.Grad...)
			serialColumnSums(wantDB, dy, s.rows)

			ctx := NewTrainCtx()
			if y := l.Apply(ctx, x, s.rows); !bitsEqual(y, wantY) {
				t.Errorf("procs=%d %+v: Linear.Apply differs from the serial bias loop", procs, s)
			}
			if y := l.Apply(NewInferCtx(), x, s.rows); !bitsEqual(y, wantY) {
				t.Errorf("procs=%d %+v: frozen Linear.Apply differs from the serial bias loop", procs, s)
			}
			l.Backprop(nil, dy)
			if !bitsEqual(l.B.Grad, wantDB) {
				t.Errorf("procs=%d %+v: Linear.Backprop bias grad differs from the serial column sums", procs, s)
			}

			ln := NewLayerNorm("ln", s.out)
			r.FillNormal(ln.Gamma.Grad, 0, 1)
			r.FillNormal(ln.Beta.Grad, 0, 1)
			ln.Apply(ctx, wantY, s.rows)
			wantDG := append([]float32(nil), ln.Gamma.Grad...)
			wantDBeta := append([]float32(nil), ln.Beta.Grad...)
			serialLayerNormParamGrads(wantDG, wantDBeta, dy, ln.xhat, s.rows)
			ln.Backprop(make([]float32, len(dy)), dy)
			if !bitsEqual(ln.Gamma.Grad, wantDG) || !bitsEqual(ln.Beta.Grad, wantDBeta) {
				t.Errorf("procs=%d %+v: LayerNorm.Backprop dγ/dβ differ from the serial loop", procs, s)
			}
		}
	}
}

// TestLinearProcsIndependent: the GEMM splits C by whole row panels and
// every tile sees the same K strips in the same order wherever the cut
// falls, so a Linear layer — bias folded into the last strip's
// write-back, one to three strips deep, ragged at both edges — gives
// the same bits forward, frozen and recording, and backward at every
// worker count.
func TestLinearProcsIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range []struct{ rows, in, out int }{{515, 96, 70}, {300, 513, 33}, {1024, 288, 96}} {
		r := rng.New(uint64(17 + s.rows))
		x := make([]float32, s.rows*s.in)
		dy := make([]float32, s.rows*s.out)
		r.FillNormal(x, 0, 1)
		r.FillNormal(dy, 0, 1)
		run := func() (out [][]float32) {
			l := NewLinear("l", s.in, s.out, rng.New(3))
			rng.New(4).FillNormal(l.B.Value, 0, 1)
			y := l.Apply(NewTrainCtx(), x, s.rows)
			if yf := l.Apply(NewInferCtx(), x, s.rows); !bitsEqual(yf, y) {
				t.Errorf("GOMAXPROCS=%d %+v: frozen pass differs from the recording pass", runtime.GOMAXPROCS(0), s)
			}
			dx := make([]float32, len(x))
			l.Backprop(dx, dy)
			return append(out, y, dx, l.W.Grad, l.B.Grad)
		}
		var want [][]float32
		for _, procs := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(procs)
			got := run()
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if !bitsEqual(got[i], want[i]) {
					t.Fatalf("GOMAXPROCS=%d %+v: result %d differs from GOMAXPROCS=1", procs, s, i)
				}
			}
		}
	}
}

// FuzzGELU drives the activation layer with arbitrary inputs, seeded
// with live pre-activations (FC1 outputs of an MLP on unit-normal
// rows): both passes stay within the kernel's accuracy contract
// against the float64 tanh form, the frozen pass equals the recording
// pass bitwise, an
// element's value does not depend on its position in the buffer, and
// non-finite inputs poison the output.
func FuzzGELU(f *testing.F) {
	r := rng.New(7)
	m := NewMLP("mlp", 16, 64, r)
	x := make([]float32, 8*16)
	r.FillNormal(x, 0, 1)
	for _, v := range m.FC1.Apply(NewInferCtx(), x, 8)[:48] {
		f.Add(v, float32(1))
	}
	for _, v := range []float32{0, 100, -100, 1e-40, -10.2, 3e19, float32(math.Inf(-1)), float32(math.NaN())} {
		f.Add(v, float32(-0.5))
	}
	f.Fuzz(func(t *testing.T, x, dy float32) {
		const n, c = 19, 0.7978845608028654
		g := NewGELU()
		xs, dys := make([]float32, n), make([]float32, n)
		for i := range xs {
			xs[i], dys[i] = x, dy
		}
		y := g.Apply(NewTrainCtx(), xs)
		dx := make([]float32, n)
		g.Backprop(dx, dys)
		yi := g.Apply(NewInferCtx(), xs)
		xf := float64(x)
		if math.IsNaN(xf) || math.IsInf(xf, 0) {
			if v := float64(y[0]); !math.IsNaN(v) && !math.IsInf(v, 0) {
				t.Fatalf("gelu(%g) = %g, want non-finite", x, y[0])
			}
			return
		}
		for i := range y {
			if math.Float32bits(y[i]) != math.Float32bits(y[0]) || math.Float32bits(yi[i]) != math.Float32bits(y[0]) ||
				(math.Float32bits(dx[i]) != math.Float32bits(dx[0]) && !math.IsNaN(float64(dx[0]))) {
				t.Fatalf("gelu(%g): element %d differs from element 0 (position or arena dependence)", x, i)
			}
		}
		th := math.Tanh(c * (xf + 0.044715*xf*xf*xf))
		if want := 0.5 * xf * (1 + th); math.Abs(float64(y[0])-want) > 2e-6*math.Max(1, math.Abs(xf)) {
			t.Fatalf("gelu(%g) = %g, want %g", x, y[0], want)
		}
		if a := math.Abs(float64(dy)); a <= 1e6 {
			want := float64(dy) * (0.5*(1+th) + 0.5*xf*(1-th*th)*c*(1+3*0.044715*xf*xf))
			if math.Abs(float64(dx[0])-want) > 4e-6*math.Max(1, a) {
				t.Fatalf("gelu'(%g)·%g = %g, want %g", x, dy, dx[0], want)
			}
		}
	})
}
