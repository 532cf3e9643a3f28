//go:build amd64 && !purego

package tensor

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/rng"
)

// TestAsmKernelMatchesGeneric compares the AVX2+FMA micro-kernel
// against the portable Go kernel on identical packed panels, including
// kc values off the unroll boundary, a strided C and every write-back
// mode. FMA contracts the multiply-add rounding, so exact equality is
// not expected.
func TestAsmKernelMatchesGeneric(t *testing.T) {
	if !haveFMA {
		t.Skip("no AVX2+FMA on this CPU")
	}
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
				cAsm := randMat(r, (mr-1)*ldc+nr)
				cGo := make([]float32, len(cAsm))
				copy(cGo, cAsm)
				kern6x16(kc, &ap[0], 1, mr, &bp[0], nr, &cAsm[0], ldc, acc, bias)
				kern6x16go(kc, &ap[0], 1, mr, &bp[0], nr, &cGo[0], ldc, acc, bias)
				if i, ok := relClose(cAsm, cGo, relTol); !ok {
					t.Fatalf("kc=%d ldc=%d acc=%v bias=%v: asm/generic mismatch at %d: %v vs %v",
						kc, ldc, acc, bias != nil, i, cAsm[i], cGo[i])
				}
			}
		}
	}
}

// TestAsmPanelsKernel holds the score-strip kernel to its two
// contracts: every tile is bitwise what kern6x16 accumulates into a
// zeroed tile (the fused attention backward recomputes forward scores
// through it), whatever the destination held before, and it agrees
// with the portable form like the micro-kernel pair does.
func TestAsmPanelsKernel(t *testing.T) {
	if !haveFMA {
		t.Skip("no AVX2+FMA on this CPU")
	}
	r := rng.New(6)
	for _, kc := range []int{1, 5, 6, 12, 16, 64, 80} {
		for _, n := range []int{1, 2, 3, 8, 48} {
			ap := randMat(r, n*kc*mr)
			bp := randMat(r, kc*nr)
			got := randMat(r, n*mr*nr) // stale contents must not survive
			want := make([]float32, n*mr*nr)
			portable := randMat(r, n*mr*nr)
			kern6x16Panels(kc, &ap[0], &bp[0], &got[0], n)
			kern6x16PanelsGo(kc, &ap[0], &bp[0], &portable[0], n)
			for p := 0; p < n; p++ {
				kern6x16(kc, &ap[p*kc*mr], 1, mr, &bp[0], nr, &want[p*mr*nr], nr, true, nil)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("kc=%d n=%d: element %d = %v, kern6x16 into a zeroed tile gives %v", kc, n, i, got[i], want[i])
				}
			}
			if i, ok := relClose(got, portable, relTol); !ok {
				t.Fatalf("kc=%d n=%d: asm/generic mismatch at %d: %v vs %v", kc, n, i, got[i], portable[i])
			}
		}
	}
}

func TestDetectFMAConsistent(t *testing.T) {
	// Re-querying the shared feature record must agree with the gate
	// captured at package init (hw.Detect memoizes one CPUID probe).
	if hw.Detect().SIMD() != haveFMA {
		t.Fatal("hw.Detect().SIMD() disagrees with the kernel dispatch gate")
	}
}
