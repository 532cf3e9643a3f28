package tensor

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/rng"
)

// fmaExact is a·b + c computed exactly and rounded once to float32:
// 1024 bits hold any float32 product plus any float32 addend.
func fmaExact(a, b, c float32) float32 {
	x := new(big.Float).SetPrec(1024).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetPrec(1024).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetPrec(1024).SetFloat64(float64(c)))
	f, _ := x.Float32()
	return f
}

// fmaTriples draws n triples of each of three kinds:
//   - random, over exponents from 2⁻⁸⁰ to 2⁶⁹, so that products and sums
//     also underflow to subnormals and overflow;
//   - c nearly cancelling a·b: the float32 rounding of −a·b moved by up
//     to three ulps either way;
//   - a·b halfway between two float32 values (odd 13-bit significands
//     whose product has 25 bits) plus a c of either sign that the
//     float64 sum keeps or loses, which decides the rounding only when
//     it is rounded once.
func fmaTriples(r *rng.RNG, n int) [][3]float32 {
	draw := func() float32 {
		return float32(math.Ldexp(r.NormFloat64(), r.Intn(150)-80))
	}
	odd13 := func() float32 {
		return float32(math.Ldexp(float64(1<<12|r.Intn(1<<12)|1), r.Intn(40)-32))
	}
	var out [][3]float32
	for i := 0; i < n; i++ {
		out = append(out, [3]float32{draw(), draw(), draw()})
	}
	for i := 0; i < n; i++ {
		a, b := draw(), draw()
		c := -float32(a * b)
		for k := r.Intn(4); k > 0; k-- {
			c = math.Nextafter32(c, float32(math.Inf(1-2*r.Intn(2))))
		}
		out = append(out, [3]float32{a, b, c})
	}
	for len(out) < 3*n {
		a, b := odd13(), odd13()
		if p := float64(a) * float64(b); math.Float64bits(p)&(1<<29-1) == 1<<28 {
			c := float32(math.Ldexp(p*(1+r.Float64()), -25-r.Intn(40)))
			out = append(out, [3]float32{a, b, c * float32(1-2*r.Intn(2))})
		}
	}
	return out
}

// doubleRounding lists triples on which rounding the float64 FMA to
// float32 — rounding twice — is one ulp off the single rounding want.
var doubleRounding = []struct {
	name    string
	a, b, c float32
	want    uint32
}{
	{"(1+2⁻¹²)² + 2⁻⁶⁰", 1 + 0x1p-12, 1 + 0x1p-12, 0x1p-60, 0x3f801001},
	// a·b = 2⁻¹⁵⁰ − 2⁻¹⁹⁰: the float64 sum lands halfway between two
	// float32 subnormals.
	{"subnormal", (1 + 0x1p-20) * 0x1p-75, (1 - 0x1p-20) * 0x1p-75, (0x1p22 + 1) * 0x1p-149, 0x00400001},
}

// TestFMA32 holds fma32 to the exact product-plus-sum rounded once, on
// random, near-cancelling and halfway triples, and on the
// double-rounding witnesses.
func TestFMA32(t *testing.T) {
	for _, tr := range fmaTriples(rng.New(41), 20000) {
		a, b, c := tr[0], tr[1], tr[2]
		if got, want := fma32(a, b, c), fmaExact(a, b, c); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%g, %g, %g) = %#x, exact rounding %#x", a, b, c, math.Float32bits(got), math.Float32bits(want))
		}
	}
	for _, w := range doubleRounding {
		if got := math.Float32bits(fma32(w.a, w.b, w.c)); got != w.want || math.Float32bits(fmaExact(w.a, w.b, w.c)) != w.want {
			t.Fatalf("%s: fma32 = %#x, exact rounding %#x, want %#x", w.name, got, math.Float32bits(fmaExact(w.a, w.b, w.c)), w.want)
		}
		if twice := math.Float32bits(float32(math.FMA(float64(w.a), float64(w.b), float64(w.c)))); twice == w.want {
			t.Fatalf("%s no longer double-rounds", w.name)
		}
	}
}

// TestFMA32MatchesKernel holds fma32 to the dispatched micro-kernel —
// the hardware's VFMADD where the CPU has AVX2+FMA — through a kc = 2
// tile: A's first column c against a B row of ones makes the sum c, so
// the tile's (0, 0) element is fma(a, b, c).
func TestFMA32MatchesKernel(t *testing.T) {
	triples := fmaTriples(rng.New(43), 2000)
	for _, w := range doubleRounding {
		triples = append(triples, [3]float32{w.a, w.b, w.c})
	}
	ap := make([]float32, 2*mr)
	bp := make([]float32, 2*nr)
	tile := make([]float32, mr*nr)
	for _, tr := range triples {
		ap[0], ap[mr] = tr[2], tr[0]
		bp[0], bp[nr] = 1, tr[1]
		microKernStrided(2, &ap[0], 1, mr, &bp[0], nr, &tile[0], nr, false, nil)
		if got, want := math.Float32bits(tile[0]), math.Float32bits(fma32(tr[0], tr[1], tr[2])); got != want {
			t.Fatalf("kernel fma(%g, %g, %g) = %#x, fma32 %#x", tr[0], tr[1], tr[2], got, want)
		}
	}
}
