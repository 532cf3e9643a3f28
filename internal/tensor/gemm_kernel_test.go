package tensor

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestStridedKernelMatchesPacked holds the micro-kernel's strided
// addressing and its write-back modes to the packed accumulate form the
// GEMM ran before it could do either: for every layout the driver hands
// it — A row-major, transposed or packed; B in place or packed — the
// tile is bitwise "pack both panels, accumulate into a zeroed tile,
// then add that to C (or store it), then add the bias", and columns of
// C beyond the tile keep what they held. It runs on whichever kernel
// the build dispatches to, so the assembly and the portable twin are
// both held to it.
func TestStridedKernelMatchesPacked(t *testing.T) {
	r := rng.New(17)
	aLayouts := []struct {
		name     string
		ars, aks func(kc int) int
	}{
		{"rowmajor", func(kc int) int { return kc + 3 }, func(int) int { return 1 }},
		{"transposed", func(int) int { return 1 }, func(int) int { return mr + 2 }},
		{"packed", func(int) int { return 1 }, func(int) int { return mr }},
	}
	for _, kc := range []int{1, 2, 7, 64, 255, 256} {
		for _, ldc := range []int{16, 21, 40} {
			for _, al := range aLayouts {
				for _, bks := range []int{nr, nr + 5} {
					ars, aks := al.ars(kc), al.aks(kc)
					a := randMat(r, (mr-1)*ars+(kc-1)*aks+1)
					b := randMat(r, (kc-1)*bks+nr)
					bias := randMat(r, nr)

					// The packed instance of the same logical panels, and
					// its sums into a zeroed tile.
					ap := make([]float32, kc*mr)
					bp := make([]float32, kc*nr)
					for kk := 0; kk < kc; kk++ {
						for rr := 0; rr < mr; rr++ {
							ap[kk*mr+rr] = a[rr*ars+kk*aks]
						}
						copy(bp[kk*nr:kk*nr+nr], b[kk*bks:])
					}
					sums := make([]float32, mr*nr)
					microKern(kc, &ap[0], &bp[0], &sums[0], nr)

					for mode := 0; mode < 4; mode++ {
						acc, withBias := mode&1 != 0, mode&2 != 0
						got := randMat(r, (mr-1)*ldc+nr+3) // stale contents must not survive a store
						want := append([]float32(nil), got...)
						var bj *float32
						if withBias {
							bj = &bias[0]
						}
						for rr := 0; rr < mr; rr++ {
							for j := 0; j < nr; j++ {
								v := sums[rr*nr+j]
								if acc {
									v = want[rr*ldc+j] + v
								}
								if withBias {
									v += bias[j]
								}
								want[rr*ldc+j] = v
							}
						}
						microKernStrided(kc, &a[0], ars, aks, &b[0], bks, &got[0], ldc, acc, bj)
						if i, ok := bitsEqual32(got, want); !ok {
							t.Fatalf("kc=%d ldc=%d A=%s bks=%d acc=%v bias=%v: element %d = %v, packed form gives %v",
								kc, ldc, al.name, bks, acc, withBias, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAsmKernelMatchesGeneric holds the dispatched micro-kernel — the
// AVX2+FMA assembly where the CPU has it — bitwise to the portable
// kern6x16go on identical packed panels, including kc values off the
// unroll boundary, a strided C and every write-back mode.
func TestAsmKernelMatchesGeneric(t *testing.T) {
	r := rng.New(5)
	for _, kc := range []int{1, 2, 3, 7, 64, 255, 256} {
		for _, ldc := range []int{nr, nr + 5, 40} {
			for mode := 0; mode < 4; mode++ {
				acc := mode&1 != 0
				var bias *float32
				if mode&2 != 0 {
					bias = &randMat(r, nr)[0]
				}
				ap := randMat(r, kc*mr)
				bp := randMat(r, kc*nr)
				got := randMat(r, (mr-1)*ldc+nr)
				want := append([]float32(nil), got...)
				microKernStrided(kc, &ap[0], 1, mr, &bp[0], nr, &got[0], ldc, acc, bias)
				kern6x16go(kc, &ap[0], 1, mr, &bp[0], nr, &want[0], ldc, acc, bias)
				if i, ok := bitsEqual32(got, want); !ok {
					t.Fatalf("kc=%d ldc=%d acc=%v bias=%v: element %d = %v, portable kernel gives %v",
						kc, ldc, acc, bias != nil, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAsmPanelsKernel holds the score-strip kernel to its two
// contracts: every tile is bitwise what the micro-kernel accumulates
// into a zeroed tile (the fused attention backward recomputes forward
// scores through it), whatever the destination held before, and the
// dispatched form is bitwise the portable one.
func TestAsmPanelsKernel(t *testing.T) {
	r := rng.New(6)
	for _, kc := range []int{1, 5, 6, 12, 16, 64, 80} {
		for _, n := range []int{1, 2, 3, 8, 48} {
			ap := randMat(r, n*kc*mr)
			bp := randMat(r, kc*nr)
			got := randMat(r, n*mr*nr) // stale contents must not survive
			want := make([]float32, n*mr*nr)
			portable := randMat(r, n*mr*nr)
			microKernPanels(kc, &ap[0], &bp[0], &got[0], n)
			kern6x16PanelsGo(kc, &ap[0], &bp[0], &portable[0], n)
			for p := 0; p < n; p++ {
				microKern(kc, &ap[p*kc*mr], &bp[0], &want[p*mr*nr], nr)
			}
			if i, ok := bitsEqual32(got, want); !ok {
				t.Fatalf("kc=%d n=%d: element %d = %v, the micro-kernel into a zeroed tile gives %v", kc, n, i, got[i], want[i])
			}
			if i, ok := bitsEqual32(got, portable); !ok {
				t.Fatalf("kc=%d n=%d: element %d = %v, portable form gives %v", kc, n, i, got[i], portable[i])
			}
		}
	}
}

// packedReference is the driver the blocked GEMM replaced, reduced to
// its arithmetic and run serially: every panel of both operands packed,
// each C tile taken from C (or zero), the K strips accumulated into it
// in order through the packed micro-kernel, then the bias added.
func packedReference(c, a, b, bias []float32, m, k, n, lda, ldb, ldc int, acc bool, op gemmOp) {
	ap := make([]float32, mr*kcBlock)
	bp := make([]float32, kcBlock*nr)
	for i := 0; i < m; i += mr {
		rw := min(mr, m-i)
		for j0 := 0; j0 < n; j0 += nr {
			jw := min(nr, n-j0)
			var tile [mr * nr]float32
			if acc {
				for rr := 0; rr < rw; rr++ {
					copy(tile[rr*nr:rr*nr+jw], c[(i+rr)*ldc+j0:])
				}
			}
			for p0 := 0; p0 < k; p0 += kcBlock {
				kcEff := min(kcBlock, k-p0)
				if op == opTA {
					packABlockT(ap, a, i, rw, p0, kcEff, lda)
				} else {
					packABlockN(ap, a, i, rw, p0, kcEff, lda)
				}
				if op == opTB {
					packBPanelT(bp, b, kcEff, ldb, p0, j0, jw)
				} else {
					packBPanelN(bp, b[p0*ldb:], kcEff, ldb, j0, jw)
				}
				microKern(kcEff, &ap[0], &bp[0], &tile[0], nr)
			}
			for rr := 0; rr < rw; rr++ {
				for j := 0; j < jw; j++ {
					v := tile[rr*nr+j]
					if bias != nil {
						v += bias[j0+j]
					}
					c[(i+rr)*ldc+j0+j] = v
				}
			}
		}
	}
}

// TestBlockedDriverMatchesPackedReference: whatever the driver reads in
// place, stores instead of adding, folds into a write-back or computes
// transposed, every element is bitwise what the all-packed, pre-zeroed,
// bias-afterwards driver produced — for the three variants, both acc
// modes, with and without a bias, ragged and exact m and n, padded
// leading dimensions, one to three K strips, row-major B on both sides
// of the in-place rule and MatMulTB on both sides of the swap rule.
func TestBlockedDriverMatchesPackedReference(t *testing.T) {
	r := rng.New(23)
	type shape struct{ m, n, ldbPad int }
	shapes := []shape{
		{6, 16, 0}, {61, 41, 0}, {72, 48, 0}, {7, 33, 0}, // B in place where row-major
		{61, 41, bInPlaceMaxLd},               // rows too far apart: packed
		{(bInPlaceMaxPanels + 1) * mr, 20, 0}, // too many row panels: packed
		// The input-gradient shapes of the 2-rank workloads' models:
		// MatMulTB computes them as Cᵀ = B·Aᵀ.
		{8, 48, 0}, {8, 96, 0}, {8, 288, 0},
		{16, 48, 0}, {16, 96, 0}, {16, 288, 0},
		{32, 48, 0}, {32, 96, 0}, {32, 288, 0},
		// The swap rule's edges: m = n and m = n−1, and the last and
		// first row-panel counts on either side of tbSwapMaxPanels.
		{40, 40, 0}, {39, 40, 0},
		{tbSwapMaxPanels * mr, tbSwapMaxPanels*mr + 30, 0},
		{tbSwapMaxPanels*mr + 1, tbSwapMaxPanels*mr + 30, 0},
	}
	var inPlace, packed, swapped, packedTB int
	for _, sh := range shapes {
		for _, k := range []int{64, 96, 288, 513} {
			for op := opNN; op <= opTB; op++ {
				m, n := sh.m, sh.n
				lda, ldb := k+3, n+sh.ldbPad
				aLen, bLen := m*lda, k*ldb
				if op == opTA {
					lda, aLen = m+3, k*(m+3)
				}
				if op == opTB {
					ldb, bLen = k+sh.ldbPad, n*(k+sh.ldbPad)
				}
				switch {
				case op == opTB && tbSwapped(m, n):
					swapped++
				case op == opTB:
					packedTB++
				case bInPlace(m, ldb):
					inPlace++
				default:
					packed++
				}
				a := randMat(r, aLen)
				b := randMat(r, bLen)
				bias := randMat(r, n)
				for mode := 0; mode < 4; mode++ {
					acc := mode&1 != 0
					var bs []float32
					if mode&2 != 0 {
						bs = bias
					}
					ldc := n + 2
					got := randMat(r, m*ldc)
					want := append([]float32(nil), got...)
					gemmBlocked(got, a, b, bs, m, k, n, lda, ldb, ldc, acc, op)
					packedReference(want, a, b, bs, m, k, n, lda, ldb, ldc, acc, op)
					if i, ok := bitsEqual32(got, want); !ok {
						t.Fatalf("%+v k=%d op=%d acc=%v bias=%v: element %d = %v, packed reference gives %v",
							sh, k, op, acc, bs != nil, i, got[i], want[i])
					}
				}
			}
		}
	}
	if inPlace == 0 || packed == 0 {
		t.Fatalf("shapes cover one side of the in-place rule only (%d in place, %d packed)", inPlace, packed)
	}
	if swapped == 0 || packedTB == 0 {
		t.Fatalf("shapes cover one side of the swap rule only (%d swapped, %d packed)", swapped, packedTB)
	}
}

// TestMatMulTBProcsMatchPackedReference: through the public entry, a
// swapped-orientation MatMulTB gives the same bits whether its tiles of
// C's columns run on one task or are cut across three, and those bits
// are the packed reference's on every build.
func TestMatMulTBProcsMatchPackedReference(t *testing.T) {
	const m, k, n = 8, 288, 96
	if !tbSwapped(m, n) {
		t.Fatalf("(%d, %d, %d) is not on the swapped side of the rule", m, k, n)
	}
	r := rng.New(31)
	a, b := randMat(r, m*k), randMat(r, n*k)
	want := make([]float32, m*n)
	packedReference(want, a, b, nil, m, k, n, k, k, n, false, opTB)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []float32
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		got := randMat(r, m*n)
		MatMulTB(got, a, b, m, k, n, false)
		if first == nil {
			first = got
		} else if i, ok := bitsEqual32(got, first); !ok {
			t.Fatalf("GOMAXPROCS=%d: element %d = %v, GOMAXPROCS=1 gives %v", procs, i, got[i], first[i])
		}
		if i, ok := bitsEqual32(got, want); !ok {
			t.Fatalf("GOMAXPROCS=%d: element %d = %v, packed reference gives %v", procs, i, got[i], want[i])
		}
	}
}

// TestMatMulBiasMatchesBiasLoop: through the public entry points, on
// both dispatch tiers and every build, MatMulBias is bitwise MatMul
// followed by the serial bias loop — k = 0 included — and a nil bias is
// MatMul.
func TestMatMulBiasMatchesBiasLoop(t *testing.T) {
	r := rng.New(29)
	for _, sh := range [][3]int{{1, 3, 5}, {7, 16, 33}, {5, 0, 9}, {64, 96, 40}, {100, 300, 50}, {13, 513, 21}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(r, m*k)
		b := randMat(r, k*n)
		bias := randMat(r, n+2)
		for _, acc := range []bool{false, true} {
			c0 := randMat(r, m*n)
			got := append([]float32(nil), c0...)
			want := append([]float32(nil), c0...)
			MatMulBias(got, a, b, bias, m, k, n, acc)
			MatMul(want, a, b, m, k, n, acc)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want[i*n+j] += bias[j]
				}
			}
			if i, ok := bitsEqual32(got, want); !ok {
				t.Fatalf("%v acc=%v: element %d = %v, MatMul then the bias loop gives %v", sh, acc, i, got[i], want[i])
			}
			copy(got, c0)
			copy(want, c0)
			MatMulBias(got, a, b, nil, m, k, n, acc)
			MatMul(want, a, b, m, k, n, acc)
			if i, ok := bitsEqual32(got, want); !ok {
				t.Fatalf("%v acc=%v: nil bias differs from MatMul at %d", sh, acc, i)
			}
		}
	}
}

// TestMatMulBiasShortBiasPanics: a bias that does not cover the output
// width fails by name before anything is written.
func TestMatMulBiasShortBiasPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(c, a, b, bias []float32)
	}{
		{"MatMulBias", func(c, a, b, bias []float32) { MatMulBias(c, a, b, bias, 2, 3, 4, false) }},
		{"MatMulBF16Bias", func(c, a, b, bias []float32) {
			MatMulBF16Bias(c, a, make([]uint16, len(b)), bias, 2, 3, 4, false)
		}},
	} {
		c := []float32{9, 9, 9, 9, 9, 9, 9, 9}
		func() {
			defer func() {
				want := fmt.Sprintf("tensor: %s bias too short (3 < n 4)", tc.name)
				if got := recover(); got != want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, want)
				}
			}()
			tc.call(c, make([]float32, 6), make([]float32, 12), make([]float32, 3))
		}()
		if _, ok := bitsEqual32(c, []float32{9, 9, 9, 9, 9, 9, 9, 9}); !ok {
			t.Errorf("%s wrote to C before rejecting the bias", tc.name)
		}
	}
}
