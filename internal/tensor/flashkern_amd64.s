//go:build amd64 && !purego

#include "textflag.h"

// Panel kernels of the fused attention (flashkern.go): every tile row
// is nr = 16 contiguous floats, two YMM vectors.
//
// Constants are stored as full 8-lane vectors so the polynomial's FMAs
// take them as memory operands. Same Cephes reduction as the scalar
// flashExp: z = x·log2e, n = round-to-even(z), t = x − n·c1 + n·c2,
// degree-5 p(t), r = p·t² + t + 1, result r·2ⁿ.
DATA flashconst<>+0x000(SB)/8, $0x3fb8aa3b3fb8aa3b // log2(e)
DATA flashconst<>+0x008(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA flashconst<>+0x010(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA flashconst<>+0x018(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA flashconst<>+0x020(SB)/8, $0x3f3180003f318000 // ln2 high = 0.693359375
DATA flashconst<>+0x028(SB)/8, $0x3f3180003f318000
DATA flashconst<>+0x030(SB)/8, $0x3f3180003f318000
DATA flashconst<>+0x038(SB)/8, $0x3f3180003f318000
DATA flashconst<>+0x040(SB)/8, $0x395e8083395e8083 // ln2 low = 2.12194440e-4
DATA flashconst<>+0x048(SB)/8, $0x395e8083395e8083
DATA flashconst<>+0x050(SB)/8, $0x395e8083395e8083
DATA flashconst<>+0x058(SB)/8, $0x395e8083395e8083
DATA flashconst<>+0x060(SB)/8, $0x3950696739506967 // p0 = 1.9875691500e-4
DATA flashconst<>+0x068(SB)/8, $0x3950696739506967
DATA flashconst<>+0x070(SB)/8, $0x3950696739506967
DATA flashconst<>+0x078(SB)/8, $0x3950696739506967
DATA flashconst<>+0x080(SB)/8, $0x3ab743ce3ab743ce // p1 = 1.3981999507e-3
DATA flashconst<>+0x088(SB)/8, $0x3ab743ce3ab743ce
DATA flashconst<>+0x090(SB)/8, $0x3ab743ce3ab743ce
DATA flashconst<>+0x098(SB)/8, $0x3ab743ce3ab743ce
DATA flashconst<>+0x0a0(SB)/8, $0x3c0889083c088908 // p2 = 8.3334519073e-3
DATA flashconst<>+0x0a8(SB)/8, $0x3c0889083c088908
DATA flashconst<>+0x0b0(SB)/8, $0x3c0889083c088908
DATA flashconst<>+0x0b8(SB)/8, $0x3c0889083c088908
DATA flashconst<>+0x0c0(SB)/8, $0x3d2aa9c13d2aa9c1 // p3 = 4.1665795894e-2
DATA flashconst<>+0x0c8(SB)/8, $0x3d2aa9c13d2aa9c1
DATA flashconst<>+0x0d0(SB)/8, $0x3d2aa9c13d2aa9c1
DATA flashconst<>+0x0d8(SB)/8, $0x3d2aa9c13d2aa9c1
DATA flashconst<>+0x0e0(SB)/8, $0x3e2aaaaa3e2aaaaa // p4 = 1.6666665459e-1
DATA flashconst<>+0x0e8(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA flashconst<>+0x0f0(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA flashconst<>+0x0f8(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA flashconst<>+0x100(SB)/8, $0x3f0000003f000000 // p5 = 0.5
DATA flashconst<>+0x108(SB)/8, $0x3f0000003f000000
DATA flashconst<>+0x110(SB)/8, $0x3f0000003f000000
DATA flashconst<>+0x118(SB)/8, $0x3f0000003f000000
DATA flashconst<>+0x120(SB)/8, $0xc2aeac50c2aeac50 // flush cutoff -87.33655
DATA flashconst<>+0x128(SB)/8, $0xc2aeac50c2aeac50
DATA flashconst<>+0x130(SB)/8, $0xc2aeac50c2aeac50
DATA flashconst<>+0x138(SB)/8, $0xc2aeac50c2aeac50
DATA flashconst<>+0x140(SB)/8, $0xc2ae0000c2ae0000 // clamp -87.0 (keeps 2^n normal)
DATA flashconst<>+0x148(SB)/8, $0xc2ae0000c2ae0000
DATA flashconst<>+0x150(SB)/8, $0xc2ae0000c2ae0000
DATA flashconst<>+0x158(SB)/8, $0xc2ae0000c2ae0000
DATA flashconst<>+0x160(SB)/8, $0x3f8000003f800000 // 1.0
DATA flashconst<>+0x168(SB)/8, $0x3f8000003f800000
DATA flashconst<>+0x170(SB)/8, $0x3f8000003f800000
DATA flashconst<>+0x178(SB)/8, $0x3f8000003f800000
DATA flashconst<>+0x180(SB)/8, $0x0000007f0000007f // exponent bias 127
DATA flashconst<>+0x188(SB)/8, $0x0000007f0000007f
DATA flashconst<>+0x190(SB)/8, $0x0000007f0000007f
DATA flashconst<>+0x198(SB)/8, $0x0000007f0000007f
GLOBL flashconst<>(SB), RODATA, $416

#define FC_LOG2E flashconst<>+0x000(SB)
#define FC_C1 flashconst<>+0x020(SB)
#define FC_C2 flashconst<>+0x040(SB)
#define FC_P0 flashconst<>+0x060(SB)
#define FC_P1 flashconst<>+0x080(SB)
#define FC_P2 flashconst<>+0x0a0(SB)
#define FC_P3 flashconst<>+0x0c0(SB)
#define FC_P4 flashconst<>+0x0e0(SB)
#define FC_P5 flashconst<>+0x100(SB)
#define FC_CUTOFF flashconst<>+0x120(SB)
#define FC_CLAMP flashconst<>+0x140(SB)
#define FC_ONE flashconst<>+0x160(SB)
#define FC_BIAS flashconst<>+0x180(SB)

// EXPCONSTS loads the loop-resident constants: Y14 clamp (VMAXPS needs
// it as the register operand to keep a NaN argument), Y5 log2e, Y6
// cutoff, Y7 one.
#define EXPCONSTS \
	VMOVUPS FC_CLAMP, Y14;  \
	VMOVUPS FC_LOG2E, Y5;   \
	VMOVUPS FC_CUTOFF, Y6;  \
	VMOVUPS FC_ONE, Y7

// EXP8 replaces the eight arguments in Y0 with their exponentials.
// Lanes below the cutoff (−Inf included) become exact zeros: they are
// clamped to −87 for the 2ⁿ construction and masked afterwards. The
// mask is "not less than" and the clamp returns its second operand on
// an unordered compare, so a NaN lane stays NaN through the
// polynomial (VCVTPS2DQ gives it n = 0x80000000, whose biased shift is
// 1.0). Clobbers Y1–Y4.
#define EXP8 \
	VCMPPS       $0x05, Y6, Y0, Y4; \
	VMAXPS       Y0, Y14, Y0;       \
	VMULPS       Y5, Y0, Y1;        \
	VROUNDPS     $0, Y1, Y1;        \
	VFNMADD231PS FC_C1, Y1, Y0;     \
	VFMADD231PS  FC_C2, Y1, Y0;     \
	VMOVUPS      FC_P0, Y3;         \
	VFMADD213PS  FC_P1, Y0, Y3;     \
	VFMADD213PS  FC_P2, Y0, Y3;     \
	VFMADD213PS  FC_P3, Y0, Y3;     \
	VFMADD213PS  FC_P4, Y0, Y3;     \
	VFMADD213PS  FC_P5, Y0, Y3;     \
	VMULPS       Y0, Y0, Y2;        \
	VFMADD213PS  Y0, Y2, Y3;        \
	VADDPS       Y7, Y3, Y3;        \
	VCVTPS2DQ    Y1, Y1;            \
	VPADDD       FC_BIAS, Y1, Y1;   \
	VPSLLD       $23, Y1, Y1;       \
	VMULPS       Y1, Y3, Y3;        \
	VANDPS       Y4, Y3, Y0

// func flashSoftmaxColsAVX2(s *float32, rows int, scale float32, ml, acc *float32, accRows int)
//
// One online-softmax step for a 16-query panel: s is rows×16 scores
// (row = key), ml is m[16] followed by l[16], acc is accRows×16.
//
//	mNew = max(m, max over rows of scale·s)      (pass 1, four rows per step)
//	α    = exp(m − mNew)
//	s    ← exp(scale·s − mNew), Σ = column sums  (pass 2)
//	l    ← α·l + Σ,  m ← mNew,  acc rows ← α·acc
TEXT ·flashSoftmaxColsAVX2(SB), NOSPLIT, $0-48
	MOVQ s+0(FP), SI
	MOVQ rows+8(FP), CX
	MOVQ ml+24(FP), DI
	MOVQ acc+32(FP), DX
	MOVQ accRows+40(FP), BX
	VBROADCASTSS scale+16(FP), Y15
	EXPCONSTS

	// Pass 1: eight independent max chains over four rows at a time.
	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VMOVAPS Y12, Y10
	VMOVAPS Y13, Y11
	VMOVAPS Y12, Y8
	VMOVAPS Y13, Y9
	VMOVAPS Y12, Y2
	VMOVAPS Y13, Y3
	MOVQ    SI, AX
	MOVQ    CX, R8

max4:
	CMPQ   R8, $4
	JLT    max1
	VMULPS (AX), Y15, Y0
	VMAXPS Y12, Y0, Y12
	VMULPS 32(AX), Y15, Y1
	VMAXPS Y13, Y1, Y13
	VMULPS 64(AX), Y15, Y0
	VMAXPS Y10, Y0, Y10
	VMULPS 96(AX), Y15, Y1
	VMAXPS Y11, Y1, Y11
	VMULPS 128(AX), Y15, Y0
	VMAXPS Y8, Y0, Y8
	VMULPS 160(AX), Y15, Y1
	VMAXPS Y9, Y1, Y9
	VMULPS 192(AX), Y15, Y0
	VMAXPS Y2, Y0, Y2
	VMULPS 224(AX), Y15, Y1
	VMAXPS Y3, Y1, Y3
	ADDQ   $256, AX
	SUBQ   $4, R8
	JMP    max4

max1:
	TESTQ  R8, R8
	JLE    maxdone
	VMULPS (AX), Y15, Y0
	VMAXPS Y12, Y0, Y12
	VMULPS 32(AX), Y15, Y1
	VMAXPS Y13, Y1, Y13
	ADDQ   $64, AX
	DECQ   R8
	JMP    max1

maxdone:
	VMAXPS Y10, Y12, Y12
	VMAXPS Y11, Y13, Y13
	VMAXPS Y2, Y8, Y8
	VMAXPS Y3, Y9, Y9
	VMAXPS Y8, Y12, Y12
	VMAXPS Y9, Y13, Y13

	// α = exp(mPrev − mNew) → Y10, Y11; m ← mNew.
	VMOVUPS (DI), Y0
	VSUBPS  Y12, Y0, Y0
	EXP8
	VMOVAPS Y0, Y10
	VMOVUPS 32(DI), Y0
	VSUBPS  Y13, Y0, Y0
	EXP8
	VMOVAPS Y0, Y11
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, 32(DI)

	// Pass 2: exponentials in place, column sums in Y8, Y9.
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	TESTQ  CX, CX
	JLE    sumdone

exploop:
	VMULPS  (SI), Y15, Y0
	VSUBPS  Y12, Y0, Y0
	EXP8
	VMOVUPS Y0, (SI)
	VADDPS  Y0, Y8, Y8
	VMULPS  32(SI), Y15, Y0
	VSUBPS  Y13, Y0, Y0
	EXP8
	VMOVUPS Y0, 32(SI)
	VADDPS  Y0, Y9, Y9
	ADDQ    $64, SI
	DECQ    CX
	JNZ     exploop

sumdone:
	VMULPS  64(DI), Y10, Y0
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, 64(DI)
	VMULPS  96(DI), Y11, Y1
	VADDPS  Y9, Y1, Y1
	VMOVUPS Y1, 96(DI)

	TESTQ BX, BX
	JLE   done

accloop:
	VMULPS  (DX), Y10, Y0
	VMOVUPS Y0, (DX)
	VMULPS  32(DX), Y11, Y1
	VMOVUPS Y1, 32(DX)
	ADDQ    $64, DX
	DECQ    BX
	JNZ     accloop

done:
	VZEROUPPER
	RET

// func flashJacobianAVX2(s, dp *float32, rows int, scale float32, stat *float32)
//
// Over rows×16 strips (row = query, lanes = keys) and one (m, 1/l, D)
// triple per row, in place: s ← p = exp(scale·s − m)·(1/l) and
// dp ← p·(dp − D)·scale, multiplied left to right like the scalar
// lane.
TEXT ·flashJacobianAVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), SI
	MOVQ dp+8(FP), DI
	MOVQ rows+16(FP), CX
	MOVQ stat+32(FP), BX
	VBROADCASTSS scale+24(FP), Y15
	EXPCONSTS
	TESTQ CX, CX
	JLE   jacdone

jacloop:
	VBROADCASTSS (BX), Y13
	VBROADCASTSS 4(BX), Y12
	VBROADCASTSS 8(BX), Y11

	VMULPS  (SI), Y15, Y0
	VSUBPS  Y13, Y0, Y0
	EXP8
	VMULPS  Y12, Y0, Y0
	VMOVUPS Y0, (SI)
	VMOVUPS (DI), Y1
	VSUBPS  Y11, Y1, Y1
	VMULPS  Y1, Y0, Y1
	VMULPS  Y15, Y1, Y1
	VMOVUPS Y1, (DI)

	VMULPS  32(SI), Y15, Y0
	VSUBPS  Y13, Y0, Y0
	EXP8
	VMULPS  Y12, Y0, Y0
	VMOVUPS Y0, 32(SI)
	VMOVUPS 32(DI), Y1
	VSUBPS  Y11, Y1, Y1
	VMULPS  Y1, Y0, Y1
	VMULPS  Y15, Y1, Y1
	VMOVUPS Y1, 32(DI)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $12, BX
	DECQ CX
	JNZ  jacloop

jacdone:
	VZEROUPPER
	RET
