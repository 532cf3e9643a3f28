package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refGELU and refGELUGrad are the float64 tanh-form oracle the float32
// kernels replaced.
func refGELU(x float64) float64 {
	const c = 0.7978845608028654 // √(2/π)
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}

func refGELUGrad(x float64) float64 {
	const c = 0.7978845608028654
	t := math.Tanh(c * (x + 0.044715*x*x*x))
	return 0.5*(1+t) + 0.5*x*(1-t*t)*c*(1+3*0.044715*x*x)
}

// geluSweep returns the accuracy/twin test inputs: a dense grid over
// [−12, 12], random normals at two scales, and the edge cases (signed
// zeros, denormals, saturation, the exp flush boundary, huge finite
// values).
func geluSweep() []float32 {
	var xs []float32
	for i := -12000; i <= 12000; i++ {
		xs = append(xs, float32(i)*1e-3)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		xs = append(xs, float32(r.NormFloat64()), float32(3*r.NormFloat64()))
	}
	zero := float32(0)
	xs = append(xs, 0, -zero, 1e-45, -1e-45, 1e-40, -1e-40, 1.1754944e-38, -1.1754944e-38,
		10.1, -10.1, 10.2, -10.2, 10.3, -10.3, 100, -100, 1e10, -1e10, 1e15, -1e15,
		3e19, -3e19, math.MaxFloat32, -math.MaxFloat32)
	return xs
}

func sameBitsOrNaN(a, b float32) bool {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.IsNaN(float64(a)) && math.IsNaN(float64(b))
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func TestGELUAccuracy(t *testing.T) {
	xs := geluSweep()
	y := make([]float32, len(xs))
	dx := make([]float32, len(xs))
	dy := make([]float32, len(xs))
	for i := range dy {
		dy[i] = 1
	}
	GELU(y, xs)
	GELUBackward(dx, dy, xs)
	var worstF, worstB float64
	for i, x := range xs {
		xf := float64(x)
		ef := math.Abs(float64(y[i])-refGELU(xf)) / math.Max(1, math.Abs(xf))
		eb := math.Abs(float64(dx[i]) - refGELUGrad(xf))
		if !(ef <= 2e-6) {
			t.Fatalf("GELU(%g) = %g, want %g (err %g)", x, y[i], refGELU(xf), ef)
		}
		if !(eb <= 4e-6) {
			t.Fatalf("GELU'(%g) = %g, want %g (err %g)", x, dx[i], refGELUGrad(xf), eb)
		}
		worstF, worstB = math.Max(worstF, ef), math.Max(worstB, eb)
	}
	t.Logf("max err: fwd %.3g·max(1,|x|), bwd %.3g", worstF, worstB)
}

// TestGELUAsmMatchesGeneric holds the dispatched kernels to the scalar
// lanes bit for bit (trivially true on purego builds, where they are
// the same code).
func TestGELUAsmMatchesGeneric(t *testing.T) {
	xs := append(geluSweep(), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)))
	r := rand.New(rand.NewSource(2))
	dy := randSlice(r, len(xs), 1)
	got, want := make([]float32, len(xs)), make([]float32, len(xs))
	geluFwd(got, xs)
	geluFwdGo(want, xs)
	for i := range xs {
		if !sameBitsOrNaN(got[i], want[i]) {
			t.Fatalf("fwd x=%g: kernel %g (%#x) != scalar lane %g (%#x)", xs[i],
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	geluBwd(got, dy, xs)
	geluBwdGo(want, dy, xs)
	for i := range xs {
		if !sameBitsOrNaN(got[i], want[i]) {
			t.Fatalf("bwd x=%g dy=%g: kernel %g (%#x) != scalar lane %g (%#x)", xs[i], dy[i],
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestGELUChunkIndependence: the value of an element never depends on
// where the buffer was cut — every sub-slice offset and length, and
// every GOMAXPROCS split of a large buffer, reproduces the same bits.
func TestGELUChunkIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randSlice(r, 80, 2)
	dy := randSlice(r, 80, 1)
	fwd, bwd := make([]float32, 80), make([]float32, 80)
	GELU(fwd, x)
	GELUBackward(bwd, dy, x)
	for off := 0; off <= 9; off++ {
		for n := 1; n <= 67; n++ {
			y, dx := make([]float32, n), make([]float32, n)
			GELU(y, x[off:off+n])
			GELUBackward(dx, dy[off:off+n], x[off:off+n])
			for i := 0; i < n; i++ {
				if math.Float32bits(y[i]) != math.Float32bits(fwd[off+i]) ||
					math.Float32bits(dx[i]) != math.Float32bits(bwd[off+i]) {
					t.Fatalf("offset %d length %d element %d differs from the whole-buffer result", off, n, i)
				}
			}
		}
	}

	const big = 3*4096 + 37
	xb, dyb := randSlice(r, big, 2), randSlice(r, big, 1)
	var ref [2][]float32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		y, dx := make([]float32, big), make([]float32, big)
		GELU(y, xb)
		GELUBackward(dx, dyb, xb)
		if ref[0] == nil {
			ref = [2][]float32{y, dx}
			continue
		}
		for i := range y {
			if math.Float32bits(y[i]) != math.Float32bits(ref[0][i]) ||
				math.Float32bits(dx[i]) != math.Float32bits(ref[1][i]) {
				t.Fatalf("GOMAXPROCS=%d: element %d differs from GOMAXPROCS=1", procs, i)
			}
		}
	}
}
