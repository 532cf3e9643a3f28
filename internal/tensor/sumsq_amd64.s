//go:build amd64 && !purego

#include "textflag.h"

// 8-lane bodies of the Σx² accumulator (sumsq.go). Lanes 0–3 live in
// Y0 and 4–7 in Y1 as float64; each float32 is widened before it is
// squared, so the products are exact and each lane adds its elements
// in flat order — the scalar lanes' bits whatever the build.

// func sumSqAVX2(lane *[8]float64, x *float32, n int)
TEXT ·sumSqAVX2(SB), NOSPLIT, $0-24
	MOVQ lane+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	SHRQ $3, CX

sumloop:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD 16(SI), Y3
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VADDPD    Y2, Y0, Y0
	VADDPD    Y3, Y1, Y1
	ADDQ      $32, SI
	DECQ      CX
	JNZ       sumloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func scaleSumSqAVX2(lane *[8]float64, x *float32, n int, alpha float32) uint32
//
// x[i] = alpha·x[i] in place, lanes += the written value squared.
// x−x is +0 for every finite x and NaN otherwise, so the OR of those
// differences is the non-finite verdict on the values as read.
TEXT ·scaleSumSqAVX2(SB), NOSPLIT, $0-36
	MOVQ lane+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y7
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VXORPS  Y6, Y6, Y6
	SHRQ $3, CX

scaleloop:
	VMOVUPS      (SI), Y2
	VSUBPS       Y2, Y2, Y4
	VORPS        Y4, Y6, Y6
	VMULPS       Y7, Y2, Y2
	VMOVUPS      Y2, (SI)
	VEXTRACTF128 $1, Y2, X3
	VCVTPS2PD    X2, Y2
	VCVTPS2PD    X3, Y3
	VMULPD       Y2, Y2, Y2
	VMULPD       Y3, Y3, Y3
	VADDPD       Y2, Y0, Y0
	VADDPD       Y3, Y1, Y1
	ADDQ         $32, SI
	DECQ         CX
	JNZ          scaleloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VEXTRACTF128 $1, Y6, X4
	VORPS   X4, X6, X6
	VMOVHLPS X6, X6, X4
	VORPS   X4, X6, X6
	VMOVSHDUP X6, X4
	VORPS   X4, X6, X6
	VMOVD   X6, AX
	MOVL    AX, ret+32(FP)
	VZEROUPPER
	RET

// func scaleAVX2(dst, src *float32, n int, alpha float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y7
	SHLQ $2, CX
	XORQ AX, AX

mulloop:
	VMULPS  (SI)(AX*1), Y7, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     mulloop

	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float32, n int)
//
// dst[i] = a[i] + b[i] over n floats, a positive multiple of 8; dst may
// be a or b.
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

addloop:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (BX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     addloop

	VZEROUPPER
	RET
