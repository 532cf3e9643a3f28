package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refSumSq is the serial float64 loop the accumulator replaced
// (tensor.L2Norm, nn.GradL2Norm and train's gradSumSq were three
// copies of it); refHasNonFinite the old opt.HasNonFinite.
func refSumSq(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}

func refHasNonFinite(x []float32) bool {
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}

func sumSqOf(x []float32, at int) float64 {
	var s SumSq
	s.Add(x, at)
	return s.Sum()
}

// randomCuts splits [0, n) at random points (empty pieces included).
func randomCuts(r *rand.Rand, n, pieces int) []int {
	cuts := []int{0}
	for i := 1; i < pieces; i++ {
		cuts = append(cuts, r.Intn(n+1))
	}
	cuts = append(cuts, n)
	for i := range cuts { // insertion sort: a handful of cuts
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// TestSumSqCutIndependence: however a buffer is cut into pieces that
// carry their flat offsets — random cuts, the per-parameter walk of a
// model's ragged tensor sizes — the sum is the bits of one whole call,
// and so are AddScaled's sum, written values and verdict.
func TestSumSqCutIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 7, 8, 9, 63, 200, 5000} {
		for _, base := range []int{0, 3, 8, 13} {
			x := randSlice(r, n, 3)
			want := sumSqOf(x, base)
			scaled := append([]float32(nil), x...)
			var ws SumSq
			ws.AddScaled(scaled, 0.125, base)
			if tensorScaled := sumSqOf(scaled, base); math.Float64bits(ws.Sum()) != math.Float64bits(tensorScaled) {
				t.Fatalf("n=%d base=%d: AddScaled sum %v != Add over the written values %v", n, base, ws.Sum(), tensorScaled)
			}
			for trial := 0; trial < 20; trial++ {
				cuts := randomCuts(r, n, 1+r.Intn(9))
				var s, ss SumSq
				y := append([]float32(nil), x...)
				for i := 0; i+1 < len(cuts); i++ {
					s.Add(x[cuts[i]:cuts[i+1]], base+cuts[i])
					ss.AddScaled(y[cuts[i]:cuts[i+1]], 0.125, base+cuts[i])
				}
				if math.Float64bits(s.Sum()) != math.Float64bits(want) {
					t.Fatalf("n=%d base=%d cuts %v: %v != whole-buffer %v", n, base, cuts, s.Sum(), want)
				}
				if math.Float64bits(ss.Sum()) != math.Float64bits(ws.Sum()) || firstDiff(y, scaled) >= 0 {
					t.Fatalf("n=%d base=%d cuts %v: AddScaled depends on the cut", n, base, cuts)
				}
			}
		}
	}
}

// TestSumSqAsmMatchesGeneric holds the assembly bodies to the scalar
// lanes bit for bit: lanes, written values and verdict.
func TestSumSqAsmMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	zero := float32(0)
	for _, n := range []int{8, 16, 64, 4096} {
		x := randSlice(r, n, 100)
		copy(x, []float32{0, -zero, 1e-45, -1e-40, 1.1754944e-38, math.MaxFloat32, -math.MaxFloat32, 3e19})
		for _, bad := range []float32{0, float32(math.Inf(1)), float32(math.Inf(-1))} {
			if bad != 0 {
				x[n-3] = bad
			}
			var a, b [8]float64
			a[2], b[2] = 7, 7
			sumSqBody(&a, x)
			sumSqBodyGo(&b, x)
			if a != b {
				t.Fatalf("n=%d: sumSq lanes %v != scalar lanes %v", n, a, b)
			}
			xa, xb := append([]float32(nil), x...), append([]float32(nil), x...)
			va := scaleSumSqBody(&a, xa, 0.3)
			vb := scaleSumSqBodyGo(&b, xb, 0.3)
			if a != b || va != vb || firstDiff(xa, xb) >= 0 {
				t.Fatalf("n=%d: scaleSumSq (lanes %v, verdict %v) != scalar lanes (%v, %v)", n, a, va, b, vb)
			}
			if va != (bad != 0) {
				t.Fatalf("n=%d: verdict %v with planted %v", n, va, bad)
			}
		}
	}
}

// TestScaleAsmMatchesGeneric: Scale is one float32 product per element
// on either path, in place or not, at every ragged length.
func TestScaleAsmMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for n := 0; n <= 70; n++ {
		x := randSlice(r, n, 10)
		if n > 3 {
			x[1], x[2], x[3] = 1e-45, -3e38, float32(math.Inf(-1))
		}
		got, want := make([]float32, n), make([]float32, n)
		scale(got, x, -1.7)
		scaleGo(want, x, -1.7)
		Scale(x, x, -1.7)
		if firstDiff(got, want) >= 0 || firstDiff(x, want) >= 0 {
			t.Fatalf("n=%d: scale %v / in place %v != scalar lane %v", n, got, x, want)
		}
	}
}

// TestAddAsmMatchesGeneric: Add is one float32 sum per element on
// either path, aliased or not, at every ragged length.
func TestAddAsmMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for n := 0; n <= 70; n++ {
		a, b := randSlice(r, n, 10), randSlice(r, n, 10)
		if n > 3 {
			a[1], a[2], a[3] = 1e-45, -3e38, float32(math.Inf(-1))
			b[2], b[3] = -3e38, float32(math.Inf(1))
		}
		got, want := make([]float32, n), make([]float32, n)
		add(got, a, b)
		addGo(want, a, b)
		sum, inPlace := make([]float32, n), append([]float32(nil), a...)
		Add(sum, a, b)
		Add(inPlace, inPlace, b)
		if firstDiff(got, want) >= 0 || firstDiff(sum, want) >= 0 || firstDiff(inPlace, want) >= 0 {
			t.Fatalf("n=%d: add %v / Add %v / aliased Add %v != scalar lane %v", n, got, sum, inPlace, want)
		}
	}
}

// TestSumSqNonFiniteVerdict: both verdicts — a non-finite Sum after
// Add, AddScaled's flag on the values as read — equal the old element
// scan, with the special value at every position of ragged buffers at
// every lane offset. −0, denormals and ±MaxFloat32 are finite.
func TestSumSqNonFiniteVerdict(t *testing.T) {
	zero := float32(0)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		-zero, 1e-45, -1e-40, math.MaxFloat32, -math.MaxFloat32}
	for _, n := range []int{1, 5, 8, 19, 40} {
		for at := 0; at < 8; at++ {
			for _, sp := range specials {
				for pos := 0; pos < n; pos++ {
					x := make([]float32, n)
					for i := range x {
						x[i] = float32(i%5) - 2
					}
					x[pos] = sp
					want := refHasNonFinite(x)
					sum := sumSqOf(x, at)
					if got := math.IsNaN(sum) || math.IsInf(sum, 0); got != want {
						t.Fatalf("n=%d at=%d %g@%d: Sum %v, HasNonFinite %v", n, at, sp, pos, sum, want)
					}
					// A power-of-two unscale, and one that overflows a
					// finite MaxFloat32 to Inf: the verdict is on the
					// values as read either way.
					for _, alpha := range []float32{1.0 / 65536, 4} {
						var s SumSq
						if got := s.AddScaled(append([]float32(nil), x...), alpha, at); got != want {
							t.Fatalf("n=%d at=%d %g@%d ×%g: AddScaled verdict %v, HasNonFinite %v", n, at, sp, pos, alpha, got, want)
						}
					}
				}
			}
		}
	}
	if s := sumSqOf(nil, 3); s != 0 {
		t.Fatalf("empty sum = %v", s)
	}
}

// TestSumSqAccuracy: eight float64 lanes are at least as accurate as
// the serial float64 loop they replace; the two agree to 1e-12.
func TestSumSqAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{3, 1000, 1 << 18} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-6)))
		}
		got, want := sumSqOf(x, 5), refSumSq(x)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Fatalf("n=%d: %v vs serial float64 %v (rel %.3g)", n, got, want, rel)
		}
		if l2 := L2Norm(x); math.Float64bits(l2) != math.Float64bits(math.Sqrt(sumSqOf(x, 0))) {
			t.Fatalf("n=%d: L2Norm %v is not the accumulator's root", n, l2)
		}
	}
}

// FuzzSumSq builds a ragged buffer around the fuzzed value and holds
// the accumulator's three contracts on it: cut at any point ≡ one
// call, within 1e-12 of the serial float64 sum, and the old element
// scan's non-finite verdict from both Add and AddScaled.
func FuzzSumSq(f *testing.F) {
	f.Add(float32(1.5), float32(0.25), 0, 3, 11)
	f.Add(float32(-1e-40), float32(65536), 5, 0, 40)
	f.Add(float32(math.Inf(-1)), float32(1), 7, 9, 9)
	f.Add(float32(math.NaN()), float32(0.5), 2, 30, 64)
	f.Add(float32(math.MaxFloat32), float32(2), 1, 17, 33)
	f.Add(float32(0), float32(0), 6, 1, 1)
	f.Fuzz(func(t *testing.T, v, alpha float32, at, cut, n int) {
		if n < 1 || n > 4096 || at < 0 || at > 1<<20 || cut < 0 || alpha != alpha {
			return
		}
		cut %= n + 1
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(i%7) - 3
		}
		x[cut%n] = v
		want := refHasNonFinite(x)
		whole := sumSqOf(x, at)
		var s SumSq
		s.Add(x[:cut], at)
		s.Add(x[cut:], at+cut)
		if math.Float64bits(s.Sum()) != math.Float64bits(whole) && whole == whole {
			t.Fatalf("cut at %d: %v != %v", cut, s.Sum(), whole)
		}
		if got := math.IsNaN(whole) || math.IsInf(whole, 0); got != want {
			t.Fatalf("Sum %v, HasNonFinite %v", whole, want)
		}
		if ref := refSumSq(x); !want && math.Abs(whole-ref) > 1e-12*ref {
			t.Fatalf("%v vs serial float64 %v", whole, ref)
		}
		y := append([]float32(nil), x...)
		var ss SumSq
		bad := ss.AddScaled(y[:cut], alpha, at)
		bad = ss.AddScaled(y[cut:], alpha, at+cut) || bad
		if bad != want {
			t.Fatalf("AddScaled verdict %v, HasNonFinite %v", bad, want)
		}
		Scale(x, x, alpha)
		if after := sumSqOf(x, at); firstDiff(x, y) >= 0 || (math.Float64bits(ss.Sum()) != math.Float64bits(after) && after == after) {
			t.Fatalf("AddScaled (sum %v) is not Scale then Add (sum %v)", ss.Sum(), after)
		}
	})
}
