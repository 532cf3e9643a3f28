package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestElementwise(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	dst := make([]float32, 3)
	Add(dst, a, b)
	if dst[0] != 5 || dst[2] != 9 {
		t.Fatalf("Add=%v", dst)
	}
	Scale(dst, a, 2)
	if dst[2] != 6 {
		t.Fatalf("Scale=%v", dst)
	}
	Add(dst, dst, a)
	if dst[2] != 9 {
		t.Fatalf("aliased Add=%v", dst)
	}
}

func TestElementwiseLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Add(make([]float32, 2), make([]float32, 3), make([]float32, 3))
}

func TestReductions(t *testing.T) {
	a := []float32{1, -2, 3, -4}
	if Sum(a) != -2 {
		t.Fatalf("Sum=%v", Sum(a))
	}
	if Mean(a) != -0.5 {
		t.Fatalf("Mean=%v", Mean(a))
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if math.Abs(L2Norm(a)-math.Sqrt(30)) > 1e-9 {
		t.Fatalf("L2Norm=%v", L2Norm(a))
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rng.New(1)
	const rows, cols = 37, 19
	x := make([]float32, rows*cols)
	r.FillNormal(x, 0, 5)
	y := make([]float32, rows*cols)
	Softmax(y, x, rows, cols)
	for rr := 0; rr < rows; rr++ {
		var s float64
		for c := 0; c < cols; c++ {
			v := y[rr*cols+c]
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", rr, s)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Large logits must not overflow.
	x := []float32{1000, 1001, 1002}
	y := make([]float32, 3)
	Softmax(y, x, 1, 3)
	for _, v := range y {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax unstable: %v", y)
		}
	}
	if y[2] < y[1] || y[1] < y[0] {
		t.Fatalf("ordering lost: %v", y)
	}
}

func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	// Property: softmax(x) == softmax(x + c) for any constant shift.
	r := rng.New(2)
	f := func(shift int8) bool {
		const cols = 8
		x := make([]float32, cols)
		r.FillNormal(x, 0, 2)
		shifted := make([]float32, cols)
		for i := range x {
			shifted[i] = x[i] + float32(shift)
		}
		y1 := make([]float32, cols)
		y2 := make([]float32, cols)
		Softmax(y1, x, 1, cols)
		Softmax(y2, shifted, 1, cols)
		return approxEq(y1, y2, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxBackwardNumeric(t *testing.T) {
	// Compare analytic softmax gradient against central differences.
	r := rng.New(3)
	const cols = 6
	x := make([]float32, cols)
	dy := make([]float32, cols)
	r.FillNormal(x, 0, 1)
	r.FillNormal(dy, 0, 1)

	y := make([]float32, cols)
	Softmax(y, x, 1, cols)
	dx := make([]float32, cols)
	SoftmaxBackward(dx, y, dy, 1, cols)

	const h = 1e-3
	for i := 0; i < cols; i++ {
		xp := append([]float32(nil), x...)
		xm := append([]float32(nil), x...)
		xp[i] += h
		xm[i] -= h
		yp := make([]float32, cols)
		ym := make([]float32, cols)
		Softmax(yp, xp, 1, cols)
		Softmax(ym, xm, 1, cols)
		var num float64
		for j := 0; j < cols; j++ {
			num += float64(dy[j]) * (float64(yp[j]) - float64(ym[j])) / (2 * h)
		}
		if math.Abs(num-float64(dx[i])) > 1e-2 {
			t.Fatalf("grad[%d]: numeric %v analytic %v", i, num, dx[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(4)
	const rows, cols = 11, 7
	a := make([]float32, rows*cols)
	r.FillNormal(a, 0, 1)
	tmp := make([]float32, rows*cols)
	back := make([]float32, rows*cols)
	Transpose(tmp, a, rows, cols)
	Transpose(back, tmp, cols, rows)
	if !approxEq(back, a, 0) {
		t.Fatal("transpose twice != identity")
	}
}

func TestGatherScatterAdjoint(t *testing.T) {
	// <Gather(x), y> == <x, ScatterAdd(y)> — the adjoint identity that
	// the MAE backward pass relies on.
	r := rng.New(5)
	const n, cols = 10, 4
	idx := []int{7, 2, 5}
	x := make([]float32, n*cols)
	r.FillNormal(x, 0, 1)
	y := make([]float32, len(idx)*cols)
	r.FillNormal(y, 0, 1)

	gx := make([]float32, len(idx)*cols)
	GatherRows(gx, x, idx, cols)
	var lhs float64
	for i := range gx {
		lhs += float64(gx[i]) * float64(y[i])
	}

	sy := make([]float32, n*cols)
	ScatterRowsAdd(sy, y, idx, cols)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(sy[i])
	}
	if math.Abs(lhs-rhs) > 1e-4 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestGatherRows(t *testing.T) {
	src := []float32{0, 0, 1, 1, 2, 2, 3, 3}
	dst := make([]float32, 4)
	GatherRows(dst, src, []int{3, 1}, 2)
	if dst[0] != 3 || dst[1] != 3 || dst[2] != 1 || dst[3] != 1 {
		t.Fatalf("GatherRows=%v", dst)
	}
}

func BenchmarkSoftmax(b *testing.B) {
	r := rng.New(1)
	const rows, cols = 512, 197
	x := make([]float32, rows*cols)
	y := make([]float32, rows*cols)
	r.FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(y, x, rows, cols)
	}
}
