package tensor_test

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The bf16-input GEMM contract is exact, not approximate: widening
// bf16 to float32 is lossless and happens inside the pack stage, so
// MatMulBF16 must equal MatMul over the pre-widened weights
// bit-for-bit on every build — the assembly and purego kernels take
// the same branch on both sides of the comparison. That equality is
// what keeps the serve bf16 equivalence tests bitwise green after the
// serving stack switched its weight GEMMs to the 2-byte encoding.

func widen(b []uint16) []float32 {
	w := make([]float32, len(b))
	tensor.FromBF16(w, b)
	return w
}

func randBF16(r *rand.Rand, n int) []uint16 {
	f := make([]float32, n)
	for i := range f {
		f[i] = float32(r.NormFloat64())
	}
	b := make([]uint16, n)
	tensor.ToBF16(b, f)
	return b
}

// TestMatMulBF16Bitwise covers both dispatch tiers (streaming small
// problems and the blocked/packed path) plus accumulation and edge
// shapes around the micro-kernel tile sizes.
func TestMatMulBF16Bitwise(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {6, 16, 16}, {13, 31, 17},
		{48, 64, 48},   // blocked path
		{50, 100, 70},  // blocked with every edge remainder
		{197, 768, 64}, // serving-like shape
	}
	r := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		m, k, n := sh.m, sh.k, sh.n
		a := make([]float32, m*k)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		bw := randBF16(r, k*n)
		wb := widen(bw)
		for _, acc := range []bool{false, true} {
			want := make([]float32, m*n)
			got := make([]float32, m*n)
			if acc {
				for i := range want {
					want[i] = float32(r.NormFloat64())
				}
				copy(got, want)
			}
			tensor.MatMul(want, a, wb, m, k, n, acc)
			tensor.MatMulBF16(got, a, bw, m, k, n, acc)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("m=%d k=%d n=%d acc=%v: bf16 GEMM not bitwise at %d: %v vs %v",
						m, k, n, acc, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMatMulBF16Strided exercises the Ld entry point with a wide
// weight matrix addressed as a sub-block.
func TestMatMulBF16Strided(t *testing.T) {
	m, k, n := 9, 21, 11
	ldb := n + 6
	r := rand.New(rand.NewSource(9))
	a := make([]float32, m*k)
	for i := range a {
		a[i] = float32(r.NormFloat64())
	}
	bw := randBF16(r, k*ldb)
	wb := widen(bw)
	want := make([]float32, m*n)
	got := make([]float32, m*n)
	tensor.MatMulLd(want, a, wb, m, k, n, k, ldb, n, false)
	tensor.MatMulBF16Ld(got, a, bw, m, k, n, k, ldb, n, false)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("strided bf16 GEMM not bitwise at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// FuzzBF16Gemm fuzzes shapes and seeds through the bitwise
// bf16≡widened-fp32 invariant, with and without the bias row — where
// both must also be MatMul followed by the serial bias loop. Under the
// purego build tag the same corpus runs against the portable kernels,
// so both implementations are held to the identical contract (the CI
// race job runs this under -race as well).
func FuzzBF16Gemm(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), int64(1), false, false)
	f.Add(uint8(40), uint8(64), uint8(40), int64(2), true, false) // blocked path
	f.Add(uint8(6), uint8(16), uint8(16), int64(3), false, true)
	f.Add(uint8(47), uint8(95), uint8(37), int64(4), true, true) // blocked, ragged, biased
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, seed int64, acc, biased bool) {
		m := int(mRaw)%64 + 1
		k := int(kRaw)%96 + 1
		n := int(nRaw)%64 + 1
		r := rand.New(rand.NewSource(seed))
		a := make([]float32, m*k)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		bw := randBF16(r, k*n)
		wb := widen(bw)
		var bias []float32
		if biased {
			bias = make([]float32, n)
			for i := range bias {
				bias[i] = float32(r.NormFloat64())
			}
		}
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		if acc {
			for i := range want {
				want[i] = float32(r.NormFloat64())
			}
			copy(got, want)
		}
		fp32 := append([]float32(nil), want...)
		tensor.MatMul(want, a, wb, m, k, n, acc)
		for i := range want {
			if biased {
				want[i] += bias[i%n]
			}
		}
		tensor.MatMulBias(fp32, a, wb, bias, m, k, n, acc)
		tensor.MatMulBF16Bias(got, a, bw, bias, m, k, n, acc)
		for i := range got {
			if got[i] != want[i] || fp32[i] != want[i] {
				t.Fatalf("m=%d k=%d n=%d acc=%v bias=%v: not bitwise at %d: bf16 %v, fp32 %v, MatMul then bias %v",
					m, k, n, acc, biased, i, got[i], fp32[i], want[i])
			}
		}
	})
}
