package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// expTol is the documented accuracy of the panel kernels' exponential
// against math.Exp.
const expTol = 4e-6

// TestFlashExp holds the scalar lane of the panel kernels' exponential
// to math.Exp over the softmax argument range, and pins the edges: an
// exact zero below the flush cutoff and at −Inf, exp(0) = 1, NaN in →
// NaN out.
func TestFlashExp(t *testing.T) {
	for x := -87.0; x <= 2.0; x += 0.0037 {
		got := float64(flashExp(float32(x)))
		want := math.Exp(float64(float32(x)))
		if math.Abs(got-want) > expTol*want {
			t.Fatalf("flashExp(%v) = %v, want %v", x, got, want)
		}
	}
	for _, x := range []float32{-87.4, -1000, float32(math.Inf(-1))} {
		if got := flashExp(x); got != 0 {
			t.Fatalf("flashExp(%v) = %v, want flushed 0", x, got)
		}
	}
	if got := flashExp(0); got != 1 {
		t.Fatalf("flashExp(0) = %v, want 1", got)
	}
	if got := flashExp(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Fatalf("flashExp(NaN) = %v, want NaN", got)
	}
}

// TestFlashSoftmaxColsMatchesGeneric holds the dispatched column
// softmax bitwise to its scalar twin over every tile height the
// unrolled max pass and the exp loop can see (full and ragged), fresh
// (−Inf, 0) and carried statistics, accumulators of one to three row
// panels, and positive, zero and negative scales: running max, exp-sum,
// exponentials and rescaled accumulators. A zero scale makes every
// score ±0, so the max's sign of zero is held too.
func TestFlashSoftmaxColsMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 47, 128, faFwdBk} {
		for _, accRows := range []int{mr, 2 * mr, 3 * mr} {
			for _, scale := range []float32{0.40824828, 0, -0.3} {
				for _, fresh := range []bool{true, false} {
					s := randSlice(r, rows*nr, 3)
					s[r.Intn(len(s))] = -400 // flushed to an exact zero
					acc := randSlice(r, accRows*nr, 1)
					var ml [2 * nr]float32
					for lane := 0; lane < nr; lane++ {
						ml[lane], ml[nr+lane] = float32(math.Inf(-1)), 0
						if !fresh {
							ml[lane], ml[nr+lane] = float32(r.NormFloat64()), float32(1+r.Float64()*40)
						}
					}
					sGo, accGo, mlGo := append([]float32(nil), s...), append([]float32(nil), acc...), ml
					flashSoftmaxCols(s, rows, scale, &ml, acc)
					flashSoftmaxColsGo(sGo, rows, scale, &mlGo, accGo)
					if i, ok := bitsEqual32(ml[:], mlGo[:]); !ok {
						t.Fatalf("rows=%d scale=%g fresh=%v: statistics %d (max, then exp-sum) = %v, scalar twin %v", rows, scale, fresh, i, ml[i], mlGo[i])
					}
					if i, ok := bitsEqual32(s, sGo); !ok {
						t.Fatalf("rows=%d scale=%g fresh=%v: exponential %d = %v, scalar twin %v", rows, scale, fresh, i, s[i], sGo[i])
					}
					if i, ok := bitsEqual32(acc, accGo); !ok {
						t.Fatalf("rows=%d scale=%g fresh=%v: accumulator %d = %v, scalar twin %v", rows, scale, fresh, i, acc[i], accGo[i])
					}
				}
			}
		}
	}
}

// TestFlashJacobianMatchesGeneric holds the dispatched backward strip
// kernel to its scalar twin for every strip height a query block can
// have: P bitwise, and dS to the unfused product of the kernel's own P
// (the Jacobian arithmetic has no FMA on either side).
func TestFlashJacobianMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for rows := 1; rows <= faBq; rows++ {
		const scale = 0.28867513
		s, dp := randSlice(r, rows*nr, 3), randSlice(r, rows*nr, 1)
		stat := make([]float32, 3*rows)
		for i := 0; i < rows; i++ {
			m := float32(-100)
			for _, sv := range s[i*nr : (i+1)*nr] {
				m = max(m, scale*sv)
			}
			stat[3*i], stat[3*i+1], stat[3*i+2] = m+float32(r.Float64()), float32(1/(1+r.Float64()*50)), float32(r.NormFloat64())
		}
		dp0 := append([]float32(nil), dp...)
		sGo, dpGo := append([]float32(nil), s...), append([]float32(nil), dp...)
		flashJacobian(s, dp, rows, scale, stat)
		flashJacobianGo(sGo, dpGo, rows, scale, stat)
		if i, ok := bitsEqual32(s, sGo); !ok {
			t.Fatalf("rows=%d: P[%d] = %v, scalar twin %v", rows, i, s[i], sGo[i])
		}
		for i := range s {
			want := float32(s[i]*(dp0[i]-stat[3*(i/nr)+2])) * scale
			if math.Float32bits(dp[i]) != math.Float32bits(want) {
				t.Fatalf("rows=%d: dS[%d] = %v, want P·(dP−D)·scale = %v", rows, i, dp[i], want)
			}
		}
	}
}

// TestFlashKernelsPoison: a non-finite score reaches the statistics
// and the tile on both builds instead of being flushed with the small
// exponentials.
func TestFlashKernelsPoison(t *testing.T) {
	for _, poison := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		s := make([]float32, 9*nr)
		s[4*nr+3] = poison
		acc := make([]float32, mr*nr)
		var ml [2 * nr]float32
		for lane := 0; lane < nr; lane++ {
			ml[lane] = float32(math.Inf(-1))
		}
		flashSoftmaxCols(s, 9, 0.5, &ml, acc)
		for lane := 0; lane < nr; lane++ {
			if bad := math.IsNaN(float64(ml[nr+lane])); bad != (lane == 3) {
				t.Fatalf("poison %v: exp-sum lane %d = %v", poison, lane, ml[nr+lane])
			}
		}
	}
	s, dp := make([]float32, 2*nr), make([]float32, 2*nr)
	s[nr+5] = float32(math.NaN())
	flashJacobian(s, dp, 2, 0.5, []float32{0, 1, 0, 0, 1, 0})
	if !math.IsNaN(float64(s[nr+5])) || !math.IsNaN(float64(dp[nr+5])) {
		t.Fatalf("NaN score gave P = %v, dS = %v", s[nr+5], dp[nr+5])
	}
}

// TestFlashTranspose16 holds the block transpose to the definition on
// both builds.
func TestFlashTranspose16(t *testing.T) {
	src := make([]float32, nr*nr)
	for i := range src {
		src[i] = float32(i)
	}
	dst, dstGo := make([]float32, nr*nr), make([]float32, nr*nr)
	flashTranspose16(dst, src)
	flashTranspose16Go(dstGo, src)
	for i := 0; i < nr; i++ {
		for j := 0; j < nr; j++ {
			if dst[j*nr+i] != src[i*nr+j] || dstGo[j*nr+i] != src[i*nr+j] {
				t.Fatalf("transpose[%d][%d] = %v (scalar twin %v), want %v", j, i, dst[j*nr+i], dstGo[j*nr+i], src[i*nr+j])
			}
		}
	}
}
