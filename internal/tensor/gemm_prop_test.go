package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// relTol is the relative tolerance for blocked-vs-naive comparisons.
// Blocked kernels reassociate the K sum and fuse each multiply-add, so
// results differ from the naive triple loop by a few ULPs per term.
const relTol = 1e-4

func relClose(got, want []float32, tol float64) (int, bool) {
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > tol*(1+math.Abs(float64(want[i]))) {
			return i, false
		}
	}
	return -1, true
}

// naiveTA/naiveTB are straightforward references for the transposed
// variants, with optional accumulation.
func naiveRef(c, a, b []float32, m, k, n int, acc bool, op gemmOp) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				var av, bv float32
				switch op {
				case opNN:
					av, bv = a[i*k+kk], b[kk*n+j]
				case opTA:
					av, bv = a[kk*m+i], b[kk*n+j]
				case opTB:
					av, bv = a[i*k+kk], b[j*k+kk]
				}
				s += av * bv
			}
			if acc {
				c[i*n+j] += s
			} else {
				c[i*n+j] = s
			}
		}
	}
}

// TestBlockedGEMMProperty drives all three kernels across ragged shapes
// straddling the blocking boundaries (micro-tile edges, K-strip edges,
// the small-GEMM cutoff) with m·k·n up to ~1e6, in both acc modes,
// comparing against the naive reference within relTol.
func TestBlockedGEMMProperty(t *testing.T) {
	r := rng.New(42)
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {5, 1, 17}, {6, 16, 16}, {7, 17, 15},
		{12, 256, 16}, {13, 257, 33}, {6, 512, 16}, {72, 64, 48},
		{73, 300, 47}, {100, 100, 100}, {128, 64, 96}, {31, 1000, 31},
		{97, 103, 101}, {144, 256, 32}, {251, 63, 65},
	}
	ops := []struct {
		name string
		op   gemmOp
		call func(c, a, b []float32, m, k, n int, acc bool)
	}{
		{"MatMul", opNN, MatMul},
		{"MatMulTA", opTA, MatMulTA},
		{"MatMulTB", opTB, MatMulTB},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, op := range ops {
			for _, acc := range []bool{false, true} {
				a := randMat(r, m*k)
				b := randMat(r, k*n)
				got := randMat(r, m*n) // nonzero start exercises both acc modes
				want := make([]float32, m*n)
				copy(want, got)
				op.call(got, a, b, m, k, n, acc)
				naiveRef(want, a, b, m, k, n, acc, op.op)
				if i, ok := relClose(got, want, relTol); !ok {
					t.Fatalf("%s %v acc=%v: mismatch at %d: got %v want %v",
						op.name, sh, acc, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBlockedGEMMFuzz hammers random ragged shapes (m·k·n up to ~1e6)
// through all three kernels against the reference.
func TestBlockedGEMMFuzz(t *testing.T) {
	r := rng.New(7)
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for it := 0; it < iters; it++ {
		m := 1 + r.Intn(160)
		k := 1 + r.Intn(300)
		n := 1 + r.Intn(120)
		op := gemmOp(int64(r.Intn(3)))
		acc := r.Intn(2) == 0
		a := randMat(r, m*k)
		b := randMat(r, k*n)
		got := randMat(r, m*n)
		want := make([]float32, m*n)
		copy(want, got)
		switch op {
		case opNN:
			MatMul(got, a, b, m, k, n, acc)
		case opTA:
			MatMulTA(got, a, b, m, k, n, acc)
		case opTB:
			MatMulTB(got, a, b, m, k, n, acc)
		}
		naiveRef(want, a, b, m, k, n, acc, op)
		if i, ok := relClose(got, want, relTol); !ok {
			t.Fatalf("iter %d op=%d m=%d k=%d n=%d acc=%v: mismatch at %d",
				it, op, m, k, n, acc, i)
		}
	}
}

// TestGEMMLdStrided embeds operands in larger row-major buffers and
// checks the strided entry points against dense copies, covering the
// attention layer's per-head view pattern.
func TestGEMMLdStrided(t *testing.T) {
	r := rng.New(9)
	for _, sh := range [][3]int{{5, 9, 7}, {33, 64, 31}, {64, 128, 48}} {
		m, k, n := sh[0], sh[1], sh[2]
		lda, ldb, ldc := k+5, n+3, n+9

		// NN: A (m×k) in lda-strided buffer, B (k×n) in ldb-strided, C ldc-strided.
		aBig := randMat(r, m*lda)
		bBig := randMat(r, k*ldb)
		cBig := make([]float32, m*ldc)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := 0; i < m; i++ {
			copy(a[i*k:(i+1)*k], aBig[i*lda:i*lda+k])
		}
		for i := 0; i < k; i++ {
			copy(b[i*n:(i+1)*n], bBig[i*ldb:i*ldb+n])
		}
		want := make([]float32, m*n)
		MatMulNaive(want, a, b, m, k, n)
		MatMulLd(cBig, aBig, bBig, m, k, n, lda, ldb, ldc, false)
		for i := 0; i < m; i++ {
			if idx, ok := relClose(cBig[i*ldc:i*ldc+n], want[i*n:(i+1)*n], relTol); !ok {
				t.Fatalf("MatMulLd %v row %d col %d mismatch", sh, i, idx)
			}
		}

		// TB: B stored (n×k) with stride ldbT.
		ldbT := k + 2
		btBig := randMat(r, n*ldbT)
		bt := make([]float32, n*k)
		for j := 0; j < n; j++ {
			copy(bt[j*k:(j+1)*k], btBig[j*ldbT:j*ldbT+k])
		}
		wantTB := make([]float32, m*n)
		naiveRef(wantTB, a, bt, m, k, n, false, opTB)
		gotTB := make([]float32, m*ldc)
		MatMulTBLd(gotTB, aBig, btBig, m, k, n, lda, ldbT, ldc, false)
		for i := 0; i < m; i++ {
			if idx, ok := relClose(gotTB[i*ldc:i*ldc+n], wantTB[i*n:(i+1)*n], relTol); !ok {
				t.Fatalf("MatMulTBLd %v row %d col %d mismatch", sh, i, idx)
			}
		}

		// TA: A stored (k×m) with stride ldaT.
		ldaT := m + 4
		atBig := randMat(r, k*ldaT)
		at := make([]float32, k*m)
		for kk := 0; kk < k; kk++ {
			copy(at[kk*m:(kk+1)*m], atBig[kk*ldaT:kk*ldaT+m])
		}
		wantTA := make([]float32, m*n)
		naiveRef(wantTA, at, b, m, k, n, false, opTA)
		gotTA := make([]float32, m*ldc)
		MatMulTALd(gotTA, atBig, bBig, m, k, n, ldaT, ldb, ldc, false)
		for i := 0; i < m; i++ {
			if idx, ok := relClose(gotTA[i*ldc:i*ldc+n], wantTA[i*n:(i+1)*n], relTol); !ok {
				t.Fatalf("MatMulTALd %v row %d col %d mismatch", sh, i, idx)
			}
		}
	}
}

// TestStridedCDoesNotTouchGutter verifies the Ld kernels leave the
// gutter columns between C rows untouched (the attention layer writes
// per-head tiles into a shared fused buffer this way).
func TestStridedCDoesNotTouchGutter(t *testing.T) {
	r := rng.New(11)
	m, k, n, ldc := 40, 64, 24, 64
	a := randMat(r, m*k)
	b := randMat(r, k*n)
	c := make([]float32, m*ldc)
	const sentinel = 123.5
	for i := range c {
		c[i] = sentinel
	}
	MatMulLd(c, a, b, m, k, n, k, n, ldc, false)
	for i := 0; i < m; i++ {
		for j := n; j < ldc; j++ {
			if c[i*ldc+j] != sentinel {
				t.Fatalf("gutter (%d,%d) overwritten: %v", i, j, c[i*ldc+j])
			}
		}
	}
}
