//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// 8-lane body of the AdamW kernel (adamw.go). Every product, sum,
// square root and quotient is its own instruction, in the order of the
// scalar lane adamwGo — no FMA — so the two builds agree bitwise.

// Integer constants of the bf16 rounding (bf16_amd64.s's trick, in
// dword lanes): tie-to-even parity bit, rounding bias, quiet-NaN bit.
DATA adamwround<>+0x00(SB)/4, $0x00000001
DATA adamwround<>+0x04(SB)/4, $0x00007fff
DATA adamwround<>+0x08(SB)/4, $0x00000040
GLOBL adamwround<>(SB), RODATA, $12

// func adamwAVX2(w, rounded *float32, image *uint16, grad, m, v *float32, n int, k *AdamWScalars)
//
// Per lane: g̃ = g·GScale, m' = B1·m + C1·g̃, v' = B2·v + (C2·g̃)·g̃,
// w' = w − ((Step·m')/(√v'·RBC2 + Eps) + Decay·w). The bf16 bits of w'
// (nearest-even, NaNs quieted — BF16FromF32's bits) are formed once in
// dword lanes; image, when non-nil, receives them packed to words, and
// rounded, when non-nil, receives them widened back to float32
// (RoundBF16's bits). n is a positive multiple of 8.
TEXT ·adamwAVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ rounded+8(FP), R8
	MOVQ image+16(FP), R12
	MOVQ grad+24(FP), SI
	MOVQ m+32(FP), R9
	MOVQ v+40(FP), R10
	MOVQ n+48(FP), CX
	MOVQ k+56(FP), R11
	MOVQ R8, R13
	ORQ  R12, R13               // non-zero when either bf16 output is wanted
	VBROADCASTSS AdamWScalars_B1(R11), Y15
	VBROADCASTSS AdamWScalars_C1(R11), Y14
	VBROADCASTSS AdamWScalars_B2(R11), Y13
	VBROADCASTSS AdamWScalars_C2(R11), Y12
	VBROADCASTSS AdamWScalars_Step(R11), Y11
	VBROADCASTSS AdamWScalars_RBC2(R11), Y10
	VBROADCASTSS AdamWScalars_Eps(R11), Y9
	VBROADCASTSS AdamWScalars_Decay(R11), Y8
	VBROADCASTSS AdamWScalars_GScale(R11), Y7
	SHLQ $2, CX
	XORQ AX, AX

loop:
	VMULPS  (SI)(AX*1), Y7, Y0  // g̃
	VMULPS  (R9)(AX*1), Y15, Y1
	VMULPS  Y0, Y14, Y2
	VADDPS  Y2, Y1, Y1          // m'
	VMOVUPS Y1, (R9)(AX*1)
	VMULPS  (R10)(AX*1), Y13, Y2
	VMULPS  Y0, Y12, Y3
	VMULPS  Y0, Y3, Y3
	VADDPS  Y3, Y2, Y2          // v'
	VMOVUPS Y2, (R10)(AX*1)
	VSQRTPS Y2, Y2
	VMULPS  Y10, Y2, Y2
	VADDPS  Y9, Y2, Y2          // √v'·RBC2 + Eps
	VMULPS  Y1, Y11, Y1
	VDIVPS  Y2, Y1, Y1          // (Step·m') / denominator
	VMOVUPS (DI)(AX*1), Y3
	VMULPS  Y3, Y8, Y4
	VADDPS  Y4, Y1, Y1
	VSUBPS  Y1, Y3, Y3          // w'
	VMOVUPS Y3, (DI)(AX*1)
	TESTQ   R13, R13
	JZ      next

	VPSRLD       $16, Y3, Y0
	VPBROADCASTD adamwround<>+0x00(SB), Y1
	VPAND        Y1, Y0, Y1     // (u>>16) & 1
	VPBROADCASTD adamwround<>+0x04(SB), Y2
	VPADDD       Y2, Y1, Y1
	VPADDD       Y3, Y1, Y1     // u + 0x7fff + parity
	VPSRLD       $16, Y1, Y1
	VCMPPS       $3, Y3, Y3, Y2 // all-ones where NaN
	VPBROADCASTD adamwround<>+0x08(SB), Y4
	VPOR         Y4, Y0, Y0     // NaN lanes: truncate, force the quiet bit
	VPBLENDVB    Y2, Y0, Y1, Y1 // bf16 bits of w', one per dword lane
	TESTQ        R12, R12
	JZ           widen
	VEXTRACTI128 $1, Y1, X2
	VPACKUSDW    X2, X1, X2     // 8 dwords (≤ 0xffff) → 8 words, in order
	MOVQ         AX, BX
	SHRQ         $1, BX         // the image's byte offset: 2 per element
	VMOVDQU      X2, (R12)(BX*1)

widen:
	TESTQ   R8, R8
	JZ      next
	VPSLLD  $16, Y1, Y1
	VMOVUPS Y1, (R8)(AX*1)

next:
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  loop

	VZEROUPPER
	RET
