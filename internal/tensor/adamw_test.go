package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refAdamW is the float64 form the float32 kernel replaced (the old
// opt.adamwApply), kept as the accuracy oracle: moments in float32, the
// bias-corrected quotient in float64, rounded once.
func refAdamW(w, g, m, v []float32, b1, b2 float32, bc1, bc2, lr, eps float64, decay float32) {
	for i := range w {
		gi := g[i]
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mhat := float64(m[i]) / bc1
		vhat := float64(v[i]) / bc2
		w[i] -= float32(lr*mhat/(math.Sqrt(vhat)+eps)) + decay*w[i]
	}
}

// adamwState is one set of kernel operands.
type adamwState struct{ w, g, m, v []float32 }

func (s adamwState) clone() adamwState {
	c := func(x []float32) []float32 { return append([]float32(nil), x...) }
	return adamwState{c(s.w), c(s.g), c(s.m), c(s.v)}
}

// adamwOperands draws n elements of training-like state (unit-scale
// weights, gradients spread over many decades, non-negative second
// moments) and then plants the edge cases: signed zeros, denormals,
// huge finite values and ±Inf gradients. NaN is excluded, as for the
// rest of the family.
func adamwOperands(r *rand.Rand, n int) adamwState {
	s := adamwState{randSlice(r, n, 1), make([]float32, n), make([]float32, n), make([]float32, n)}
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(r.Intn(17)-12))
		s.g[i] = float32(r.NormFloat64() * scale)
		s.m[i] = float32(r.NormFloat64() * scale)
		s.v[i] = float32(r.Float64() * scale * scale)
	}
	zero := float32(0)
	edges := []float32{0, -zero, 1e-45, -1e-45, 1e-40, -1e-40, 1.1754944e-38, 3e19, -3e19,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1))}
	for i, e := range edges {
		if at := i * 3; at < n {
			s.g[at] = e
		}
		if at := i*3 + 1; at < n && e >= 0 {
			s.v[at] = e
		}
		if at := i*3 + 2; at < n && !math.IsInf(float64(e), 0) {
			s.w[at], s.m[at] = e, e
		}
	}
	return s
}

func adamwTestScalars(t int) AdamWScalars {
	k := NewAdamWScalars(3e-3, 0.9, 0.95, 1e-8, t)
	k.Decay = float32(3e-3 * 0.05)
	k.GScale = 0.37
	return k
}

func firstDiff(a, b []float32) int {
	for i := range a {
		if !sameBitsOrNaN(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// TestAdamWAsmMatchesGeneric holds the dispatched kernel to the scalar
// lane bit for bit over ragged lengths, with and without the rounded
// destination (trivially true on purego builds).
func TestAdamWAsmMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 8, 9, 40, 63, 64, 1000, 4099} {
		for _, withRounded := range []bool{false, true} {
			a := adamwOperands(r, n)
			b := a.clone()
			var ra, rb []float32
			if withRounded {
				ra, rb = make([]float32, n), make([]float32, n)
			}
			k := adamwTestScalars(1 + r.Intn(1000))
			adamw(a.w, ra, a.g, a.m, a.v, &k)
			adamwGo(b.w, rb, b.g, b.m, b.v, &k)
			for name, pair := range map[string][2][]float32{"w": {a.w, b.w}, "m": {a.m, b.m}, "v": {a.v, b.v}, "rounded": {ra, rb}} {
				if i := firstDiff(pair[0], pair[1]); i >= 0 {
					t.Fatalf("n=%d rounded=%v: %s[%d] kernel %g (%#x) != scalar lane %g (%#x)", n, withRounded, name, i,
						pair[0][i], math.Float32bits(pair[0][i]), pair[1][i], math.Float32bits(pair[1][i]))
				}
			}
		}
	}
}

// TestAdamWChunkIndependence: any cut of the buffers — every sub-slice
// offset and length, every GOMAXPROCS split — updates each element to
// the bits one whole-buffer call gives it.
func TestAdamWChunkIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	k := adamwTestScalars(7)
	whole := adamwOperands(r, 80)
	init := whole.clone()
	wholeR := make([]float32, 80)
	AdamW(whole.w, wholeR, whole.g, whole.m, whole.v, &k)
	for off := 0; off <= 9; off++ {
		for n := 1; n <= 67; n++ {
			c := init.clone()
			cr := make([]float32, 80)
			AdamW(c.w[off:off+n], cr[off:off+n], c.g[off:off+n], c.m[off:off+n], c.v[off:off+n], &k)
			for _, pair := range [][2][]float32{{c.w, whole.w}, {c.m, whole.m}, {c.v, whole.v}, {cr, wholeR}} {
				if i := firstDiff(pair[0][off:off+n], pair[1][off:off+n]); i >= 0 {
					t.Fatalf("offset %d length %d element %d differs from the whole-buffer result", off, n, i)
				}
			}
		}
	}

	const big = 3*adamwGrain + 37
	initB := adamwOperands(r, big)
	var ref adamwState
	var refR []float32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		c := initB.clone()
		cr := make([]float32, big)
		AdamW(c.w, cr, c.g, c.m, c.v, &k)
		if ref.w == nil {
			ref, refR = c, cr
			continue
		}
		for _, pair := range [][2][]float32{{c.w, ref.w}, {c.m, ref.m}, {c.v, ref.v}, {cr, refR}} {
			if i := firstDiff(pair[0], pair[1]); i >= 0 {
				t.Fatalf("GOMAXPROCS=%d: element %d differs from GOMAXPROCS=1", procs, i)
			}
		}
	}
}

// ulp32 is the spacing of float32 at |x|.
func ulp32(x float64) float64 {
	f := float32(math.Abs(x))
	return float64(math.Nextafter32(f, float32(math.Inf(1)))) - float64(f)
}

// adamwUpdateErrUlps runs one step from zero weights without decay —
// so w' is exactly the negated update term — through the kernel and
// through the float64 oracle, checks the moments agree bitwise, and
// returns the worst update error in ulps of the oracle's update.
func adamwUpdateErrUlps(t *testing.T, s adamwState, lr float64, step int) float64 {
	t.Helper()
	n := len(s.w)
	clear(s.w)
	o := s.clone()
	k := NewAdamWScalars(lr, 0.9, 0.95, 1e-8, step)
	AdamW(s.w, nil, s.g, s.m, s.v, &k)
	bc1, bc2 := 1-math.Pow(0.9, float64(step)), 1-math.Pow(0.95, float64(step))
	refAdamW(o.w, o.g, o.m, o.v, 0.9, 0.95, bc1, bc2, lr, 1e-8, 0)
	worst := 0.0
	for i := 0; i < n; i++ {
		if math.Float32bits(s.m[i]) != math.Float32bits(o.m[i]) || math.Float32bits(s.v[i]) != math.Float32bits(o.v[i]) {
			t.Fatalf("element %d: moments (%g, %g) differ from the float64 form's (%g, %g)", i, s.m[i], s.v[i], o.m[i], o.v[i])
		}
		worst = math.Max(worst, math.Abs(float64(s.w[i])-float64(o.w[i]))/ulp32(float64(o.w[i])))
	}
	return worst
}

// adamwUlpBound is the kernel's accuracy contract against the float64
// form, in ulps of the update term: seven float32 roundings (Step, RBC2,
// two products, the root, the ε sum, the quotient) of half an ulp each
// against a result whose ulp is relative to the next power of two
// below it, plus the oracle's own rounding.
const adamwUlpBound = 8

// TestAdamWAccuracy measures the float32 update term against the
// float64 form over gradients from 1e-12 to 1e4 and bias corrections
// from the first step to saturation.
func TestAdamWAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	worst := 0.0
	for _, step := range []int{1, 2, 10, 100, 5000, 1000000} {
		for _, lr := range []float64{1.5e-4, 3e-3, 0.02} {
			const n = 1 << 15
			s := adamwState{make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)}
			for i := 0; i < n; i++ {
				scale := math.Pow(10, float64(r.Intn(17)-12))
				s.g[i] = float32(r.NormFloat64() * scale)
				s.m[i] = float32(r.NormFloat64() * scale)
				s.v[i] = float32((0.05 + r.Float64()) * scale * scale)
			}
			worst = math.Max(worst, adamwUpdateErrUlps(t, s, lr, step))
		}
	}
	t.Logf("max update error vs the float64 form: %.2f ulps", worst)
	if worst > adamwUlpBound {
		t.Fatalf("update term off by %.2f ulps, contract is %d", worst, adamwUlpBound)
	}
}

// TestAdamWRoundedIsRoundBF16: the second destination holds exactly
// RoundBF16 of the fp32 result, NaN results included.
func TestAdamWRoundedIsRoundBF16(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, n := range []int{5, 64, 1003} {
		s := adamwOperands(r, n)
		rounded, want := make([]float32, n), make([]float32, n)
		k := adamwTestScalars(3)
		AdamW(s.w, rounded, s.g, s.m, s.v, &k)
		RoundBF16(want, s.w)
		for i := range want {
			if math.Float32bits(rounded[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: rounded[%d] = %#x, RoundBF16(%g) = %#x", n, i,
					math.Float32bits(rounded[i]), s.w[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestAdamWPaddingStaysZero: zero weights, moments and gradients
// without decay — a flat buffer's pad tail — stay exactly +0 through
// any number of steps, whatever the clip factor.
func TestAdamWPaddingStaysZero(t *testing.T) {
	const n = 21
	s := adamwState{make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)}
	rounded := make([]float32, n)
	for step := 1; step <= 50; step++ {
		k := NewAdamWScalars(0.02, 0.9, 0.95, 1e-8, step)
		k.GScale = 1 / float32(step)
		AdamW(s.w, rounded, s.g, s.m, s.v, &k)
	}
	for _, x := range [][]float32{s.w, s.m, s.v, rounded} {
		for i, v := range x {
			if math.Float32bits(v) != 0 {
				t.Fatalf("pad element %d became %g (%#x)", i, v, math.Float32bits(v))
			}
		}
	}
}

// FuzzAdamW drives one element through the kernel at every position of
// a ragged buffer: the assembly equals the scalar lane bitwise, the
// value does not depend on position, the rounded copy is RoundBF16 of
// the result, and within the kernel's stated range the update is
// within adamwUlpBound of the float64 form.
func FuzzAdamW(f *testing.F) {
	f.Add(float32(0.3), float32(1e-3), float32(2e-4), float32(1e-7), 3)
	f.Add(float32(-1.2), float32(-40), float32(3), float32(900), 1)
	f.Add(float32(0), float32(0), float32(0), float32(0), 10)
	f.Add(float32(0.5), float32(1e-40), float32(-1e-41), float32(1e-45), 2000)
	f.Add(float32(1e30), float32(math.Inf(1)), float32(1), float32(1), 5)
	f.Add(float32(-3), float32(-math.MaxFloat32), float32(1e20), float32(3e38), 50)
	f.Fuzz(func(t *testing.T, w, g, m, v float32, step int) {
		if w != w || g != g || m != m || v != v || v < 0 || step < 1 || step > 1<<24 {
			return
		}
		const n = 19
		fill := func(x float32) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = x
			}
			return s
		}
		a := adamwState{fill(w), fill(g), fill(m), fill(v)}
		b := a.clone()
		ra, rb := make([]float32, n), make([]float32, n)
		k := NewAdamWScalars(3e-3, 0.9, 0.95, 1e-8, step)
		k.Decay = 1.5e-4
		AdamW(a.w, ra, a.g, a.m, a.v, &k)
		adamwGo(b.w, rb, b.g, b.m, b.v, &k)
		want := make([]float32, n)
		RoundBF16(want, a.w)
		for i := 0; i < n; i++ {
			for _, p := range [][2]float32{{a.w[i], b.w[0]}, {a.m[i], b.m[0]}, {a.v[i], b.v[0]}, {ra[i], rb[0]}, {ra[i], want[i]}} {
				if !sameBitsOrNaN(p[0], p[1]) {
					t.Fatalf("element %d: %g (%#x) vs %g (%#x)", i, p[0], math.Float32bits(p[0]), p[1], math.Float32bits(p[1]))
				}
			}
		}
		// The bound is stated for normal-range intermediates: gradients
		// of 1e-12..1e4 and a Step·m' that did not cancel into the
		// denormals (where an ulp is no longer relative).
		ag, sm := math.Abs(float64(g)), math.Abs(float64(k.Step)*float64(a.m[0]))
		if ag >= 1e-12 && ag <= 1e4 && math.Abs(float64(m)) <= 1e4 && v <= 1e8 && (sm == 0 || sm >= 1e-37) {
			s := adamwState{fill(0), fill(g), fill(m), fill(v)}
			if e := adamwUpdateErrUlps(t, s, 3e-3, step); e > adamwUlpBound {
				t.Fatalf("update off by %.2f ulps of the float64 form", e)
			}
		}
	})
}
