package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

const eps = 1e-4

func approxEq(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > tol*(1+math.Abs(float64(b[i]))) {
			return false
		}
	}
	return true
}

func randMat(r *rng.RNG, n int) []float32 {
	m := make([]float32, n)
	r.FillNormal(m, 0, 1)
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 65}, {128, 64, 96}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(r, m*k), randMat(r, k*n)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMul(got, a, b, m, k, n, false)
		MatMulNaive(want, a, b, m, k, n)
		if !approxEq(got, want, eps) {
			t.Fatalf("MatMul mismatch for %v", dims)
		}
	}
}

func TestMatMulAccumulate(t *testing.T) {
	r := rng.New(2)
	m, k, n := 9, 7, 11
	a, b := randMat(r, m*k), randMat(r, k*n)
	c := make([]float32, m*n)
	for i := range c {
		c[i] = 1
	}
	want := make([]float32, m*n)
	MatMulNaive(want, a, b, m, k, n)
	for i := range want {
		want[i] += 1
	}
	MatMul(c, a, b, m, k, n, true)
	if !approxEq(c, want, eps) {
		t.Fatal("accumulate mode incorrect")
	}
}

func TestMatMulTBMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(3)
	m, k, n := 13, 8, 21
	a := randMat(r, m*k)
	bT := randMat(r, n*k) // B stored as (n×k)
	b := make([]float32, k*n)
	Transpose(b, bT, n, k)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	MatMulTB(got, a, bT, m, k, n, false)
	MatMulNaive(want, a, b, m, k, n)
	if !approxEq(got, want, eps) {
		t.Fatal("MatMulTB mismatch")
	}
}

func TestMatMulTAMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(4)
	m, k, n := 10, 12, 6
	aT := randMat(r, k*m) // A stored as (k×m)
	a := make([]float32, m*k)
	Transpose(a, aT, k, m)
	b := randMat(r, k*n)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	MatMulTA(got, aT, b, m, k, n, false)
	MatMulNaive(want, a, b, m, k, n)
	if !approxEq(got, want, eps) {
		t.Fatal("MatMulTA mismatch")
	}
}

func TestMatMulTAAccumulate(t *testing.T) {
	r := rng.New(5)
	m, k, n := 5, 6, 7
	aT, b := randMat(r, k*m), randMat(r, k*n)
	c := make([]float32, m*n)
	base := randMat(r, m*n)
	copy(c, base)
	once := make([]float32, m*n)
	MatMulTA(once, aT, b, m, k, n, false)
	want := make([]float32, m*n)
	for i := range want {
		want[i] = base[i] + once[i]
	}
	MatMulTA(c, aT, b, m, k, n, true)
	if !approxEq(c, want, eps) {
		t.Fatal("MatMulTA accumulate incorrect")
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	// Property: A·I = A for random square A.
	r := rng.New(6)
	f := func(sz uint8) bool {
		n := int(sz%24) + 1
		a := randMat(r, n*n)
		id := make([]float32, n*n)
		for i := 0; i < n; i++ {
			id[i*n+i] = 1
		}
		c := make([]float32, n*n)
		MatMul(c, a, id, n, n, n, false)
		return approxEq(c, a, eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// Property: (αA)·B = α(A·B).
	r := rng.New(7)
	m, k, n := 6, 5, 4
	a, b := randMat(r, m*k), randMat(r, k*n)
	const alpha = 2.5
	scaled := make([]float32, len(a))
	Scale(scaled, a, alpha)
	c1 := make([]float32, m*n)
	c2 := make([]float32, m*n)
	MatMul(c1, scaled, b, m, k, n, false)
	MatMul(c2, a, b, m, k, n, false)
	Scale(c2, c2, alpha)
	if !approxEq(c1, c2, eps) {
		t.Fatal("GEMM not linear in A")
	}
}

func TestDotAxpy(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{5, 4, 3, 2, 1}
	if got := dot(x, y); got != 35 {
		t.Fatalf("dot = %v want 35", got)
	}
	axpy(2, x, y)
	want := []float32{7, 8, 9, 10, 11}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("axpy: y=%v", y)
		}
	}
	if dot(nil, nil) != 0 {
		t.Fatal("dot of empty != 0")
	}
}

// The GEMM throughput benchmarks (blocked kernels, streaming baseline,
// naive ablation) live in gemm_bench_test.go.
