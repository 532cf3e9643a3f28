package tensor_test

import (
	"math"
	"testing"

	"repro/internal/mae"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/vit"
)

// liveSeedValues harvests float32 values from a real training step of a
// tiny MAE/ViT — weights after init and gradients after one backward —
// so the fuzz corpus starts from the magnitude distribution the bf16
// wire mode actually carries, not just synthetic bit patterns.
func liveSeedValues() []float32 {
	enc := vit.Config{Name: "fuzz-tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	cfg := mae.Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75}
	r := rng.New(41)
	m := mae.New(cfg, r)
	imgs := make([]float32, 4*12*12*3)
	r.FillUniform(imgs, 0, 1)
	m.Step(imgs, 4)
	var vals []float32
	for _, p := range m.Params() {
		if len(p.Grad) > 0 {
			vals = append(vals, p.Grad[0], p.Grad[len(p.Grad)/2])
		}
		if len(p.Value) > 0 {
			vals = append(vals, p.Value[0])
		}
		if len(vals) >= 48 {
			break
		}
	}
	return vals
}

// FuzzBF16RoundTrip fuzzes single float32 values through the bf16
// conversion pair, checking the invariants the wire format guarantees:
// NaN stays NaN, ±Inf and ±0 are exact, finite values round within half
// a bf16 ULP, a second round trip is a fixed point, and the dispatched
// vector kernel (AVX2 assembly where available) agrees with the scalar
// conversion bit for bit.
func FuzzBF16RoundTrip(f *testing.F) {
	for _, v := range liveSeedValues() {
		f.Add(v)
	}
	for _, v := range []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 1.5,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32,
		math.Float32frombits(0x00008000), // bf16 subnormal tie
		math.Float32frombits(0x3f808000), // normal tie, even target
		math.Float32frombits(0x3f818000), // normal tie, odd target
		math.Float32frombits(0x7f7fffff), // largest finite → rounds to +Inf
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, x float32) {
		b := tensor.BF16FromF32(x)
		y := tensor.F32FromBF16(b)
		switch {
		case x != x: // NaN in → NaN out
			if y == y {
				t.Fatalf("NaN 0x%08x converted to finite %v (bf16 0x%04x)", math.Float32bits(x), y, b)
			}
		case math.IsInf(float64(x), 0), x == 0:
			if y != x || math.Signbit(float64(y)) != math.Signbit(float64(x)) {
				t.Fatalf("special %v round-tripped to %v", x, y)
			}
		case math.IsInf(float64(y), 0):
			// Finite values at or above the midpoint between the
			// largest bf16 finite and infinity overflow under RNE.
			if math.Abs(float64(x)) < float64(math.Float32frombits(0x7f7f8000)) {
				t.Fatalf("x=%v overflowed to %v below the rounding midpoint", x, y)
			}
		default:
			// Half a bf16 ULP: 2⁻⁸ relative for normals, an absolute
			// bound of half the smallest bf16 subnormal near zero.
			err := math.Abs(float64(y) - float64(x))
			if err > math.Abs(float64(x))/256 && err > 4.6e-41 {
				t.Fatalf("x=%v → %v: error %v beyond half ULP", x, y, err)
			}
		}
		// A second trip is a fixed point (the quiet bit is already set).
		if b2 := tensor.BF16FromF32(y); b2 != b {
			t.Fatalf("x=%v: re-round 0x%04x != 0x%04x", x, b2, b)
		}
		// Vector path ≡ scalar path, across the 8-lane block boundary.
		src := make([]float32, 11)
		for i := range src {
			src[i] = x
		}
		dst := make([]uint16, len(src))
		tensor.ToBF16(dst, src)
		for i, d := range dst {
			if d != b {
				t.Fatalf("x=%v: vector lane %d gives 0x%04x, scalar 0x%04x", x, i, d, b)
			}
		}
		wide := make([]float32, len(dst))
		tensor.FromBF16(wide, dst)
		for i, w := range wide {
			if math.Float32bits(w) != math.Float32bits(y) {
				t.Fatalf("x=%v: widen lane %d gives bits 0x%08x, scalar 0x%08x",
					x, i, math.Float32bits(w), math.Float32bits(y))
			}
		}
	})
}
