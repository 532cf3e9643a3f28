//go:build amd64 && !purego

#include "textflag.h"

// 8-lane bodies of the LayerNorm kernels (layernorm.go). Every product
// and sum is its own instruction, in the order of the scalar lanes —
// no FMA — and row reductions fold their eight lane sums in the same
// fixed tree, so the two builds agree bitwise.

// HSUM folds the eight lanes of Y(v) into the low lane of X(v) as
// ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)). t is a scratch X register.
#define HSUM(yv, xv, xt) \
	VEXTRACTF128 $1, yv, xt; \
	VADDPS       xt, xv, xv; \
	VMOVHLPS     xv, xv, xt; \
	VADDPS       xt, xv, xv; \
	VMOVSHDUP    xv, xt;     \
	VADDSS       xt, xv, xv

// func layerNormFwdAVX2(y, xhat, invStd, x, gamma, beta *float32, rows, d int, eps float32)
//
// Per row: mean = Σx/d, var = Σ(x−mean)²/d, inv = 1/√(var+eps),
// x̂ = (x−mean)·inv, y = g·x̂ + b. xhat and invStd are skipped when
// nil. d is a positive multiple of 8.
TEXT ·layerNormFwdAVX2(SB), NOSPLIT, $0-68
	MOVQ y+0(FP), DI
	MOVQ xhat+8(FP), R8
	MOVQ invStd+16(FP), R9
	MOVQ x+24(FP), SI
	MOVQ gamma+32(FP), R10
	MOVQ beta+40(FP), R11
	MOVQ rows+48(FP), CX
	MOVQ d+56(FP), DX
	VMOVSS eps+64(FP), X12
	VCVTSI2SSQ DX, X13, X13 // float32(d)
	MOVL $0x3f800000, AX
	VMOVD AX, X11          // 1.0
	SHLQ $2, DX            // row bytes

fwdrow:
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX

fwdsum:
	VADDPS (SI)(AX*1), Y0, Y0
	ADDQ   $32, AX
	CMPQ   AX, DX
	JLT    fwdsum
	HSUM(Y0, X0, X2)
	VDIVSS X13, X0, X0
	VBROADCASTSS X0, Y15 // mean

	VXORPS Y1, Y1, Y1
	XORQ   AX, AX

fwdvar:
	VMOVUPS (SI)(AX*1), Y2
	VSUBPS  Y15, Y2, Y2
	VMULPS  Y2, Y2, Y2
	VADDPS  Y2, Y1, Y1
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     fwdvar
	HSUM(Y1, X1, X2)
	VDIVSS  X13, X1, X1
	VADDSS  X12, X1, X1
	VSQRTSS X1, X1, X1
	VDIVSS  X1, X11, X1 // inv = 1/√(var+eps)
	TESTQ   R9, R9
	JZ      fwdnoinv
	VMOVSS  X1, (R9)
	ADDQ    $4, R9

fwdnoinv:
	VBROADCASTSS X1, Y14
	XORQ AX, AX

fwdout:
	VMOVUPS (SI)(AX*1), Y2
	VSUBPS  Y15, Y2, Y2
	VMULPS  Y14, Y2, Y2
	TESTQ   R8, R8
	JZ      fwdnoxhat
	VMOVUPS Y2, (R8)(AX*1)

fwdnoxhat:
	VMULPS  (R10)(AX*1), Y2, Y2
	VADDPS  (R11)(AX*1), Y2, Y2
	VMOVUPS Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     fwdout

	ADDQ  DX, SI
	ADDQ  DX, DI
	TESTQ R8, R8
	JZ    fwdnext
	ADDQ  DX, R8

fwdnext:
	DECQ CX
	JNZ  fwdrow
	VZEROUPPER
	RET

// func layerNormAffineAVX2(y, xhat, gamma, beta *float32, rows, d int)
//
// Per row: y = g·x̂ + b, fwdout's last two steps. d is a positive
// multiple of 8.
TEXT ·layerNormAffineAVX2(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ xhat+8(FP), SI
	MOVQ gamma+16(FP), R10
	MOVQ beta+24(FP), R11
	MOVQ rows+32(FP), CX
	MOVQ d+40(FP), DX
	SHLQ $2, DX

affrow:
	XORQ AX, AX

affout:
	VMOVUPS (SI)(AX*1), Y2
	VMULPS  (R10)(AX*1), Y2, Y2
	VADDPS  (R11)(AX*1), Y2, Y2
	VMOVUPS Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     affout

	ADDQ DX, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  affrow
	VZEROUPPER
	RET

// func layerNormBwdAVX2(dx, dy, xhat, invStd, gamma *float32, rows, d int)
//
// Per row, with dx̂ = dy·g: a = Σdx̂/d, c = Σ(dx̂·x̂)/d,
// dx = inv·((dx̂ − a) − x̂·c). d is a positive multiple of 8.
TEXT ·layerNormBwdAVX2(SB), NOSPLIT, $0-56
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), R8
	MOVQ invStd+24(FP), R9
	MOVQ gamma+32(FP), R10
	MOVQ rows+40(FP), CX
	MOVQ d+48(FP), DX
	VCVTSI2SSQ DX, X13, X13
	MOVL $0x3f800000, AX
	VMOVD AX, X11
	VDIVSS X13, X11, X13 // 1/d
	SHLQ $2, DX

bwdrow:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   AX, AX

bwdsum:
	VMOVUPS (SI)(AX*1), Y2
	VMULPS  (R10)(AX*1), Y2, Y2 // dx̂
	VADDPS  Y2, Y0, Y0
	VMULPS  (R8)(AX*1), Y2, Y2
	VADDPS  Y2, Y1, Y1
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     bwdsum
	HSUM(Y0, X0, X2)
	HSUM(Y1, X1, X2)
	VMULSS X13, X0, X0
	VMULSS X13, X1, X1
	VBROADCASTSS X0, Y15   // a
	VBROADCASTSS X1, Y14   // c
	VBROADCASTSS (R9), Y12 // inv
	ADDQ $4, R9
	XORQ AX, AX

bwdout:
	VMOVUPS (SI)(AX*1), Y2
	VMULPS  (R10)(AX*1), Y2, Y2
	VSUBPS  Y15, Y2, Y2
	VMULPS  (R8)(AX*1), Y14, Y3
	VSUBPS  Y3, Y2, Y2
	VMULPS  Y12, Y2, Y2
	VMOVUPS Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     bwdout

	ADDQ DX, SI
	ADDQ DX, DI
	ADDQ DX, R8
	DECQ CX
	JNZ  bwdrow
	VZEROUPPER
	RET

// func layerNormColSumsAVX2(dg, db, dy, xhat *float32, rows, ld int)
//
// dg[0:8] += Σ_r dy[r]·x̂[r], db[0:8] += Σ_r dy[r] over rows rows ld
// floats apart, rows added in order.
TEXT ·layerNormColSumsAVX2(SB), NOSPLIT, $0-48
	MOVQ dg+0(FP), DI
	MOVQ db+8(FP), BX
	MOVQ dy+16(FP), SI
	MOVQ xhat+24(FP), R8
	MOVQ rows+32(FP), CX
	MOVQ ld+40(FP), DX
	SHLQ $2, DX
	VMOVUPS (DI), Y0
	VMOVUPS (BX), Y1

colloop:
	VMOVUPS (SI), Y2
	VMULPS  (R8), Y2, Y3
	VADDPS  Y3, Y0, Y0
	VADDPS  Y2, Y1, Y1
	ADDQ    DX, SI
	ADDQ    DX, R8
	DECQ    CX
	JNZ     colloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (BX)
	VZEROUPPER
	RET

// func colSumsAVX2(dst, x *float32, rows, ld, n int)
//
// dst[j] += Σ_r x[r·ld + j] for n columns, n a positive multiple of 8,
// over rows ≥ 1 rows, rows added in order. Columns go 32 at a time —
// four independent add chains, two whole cache lines of every row —
// then 8 at a time; each pass walks the rows at stride ld, so a matrix
// is streamed once however wide it is.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), R8
	MOVQ rows+16(FP), R9
	MOVQ ld+24(FP), DX
	MOVQ n+32(FP), BX
	SHLQ $2, DX

cols32:
	CMPQ BX, $32
	JLT  cols8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    R8, SI
	MOVQ    R9, CX

rows32:
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	VADDPS 64(SI), Y2, Y2
	VADDPS 96(SI), Y3, Y3
	ADDQ   DX, SI
	DECQ   CX
	JNZ    rows32

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $32, BX
	JMP     cols32

cols8:
	TESTQ BX, BX
	JLE   colsdone
	VMOVUPS (DI), Y0
	MOVQ    R8, SI
	MOVQ    R9, CX

rows8:
	VADDPS (SI), Y0, Y0
	ADDQ   DX, SI
	DECQ   CX
	JNZ    rows8

	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $8, BX
	JMP     cols8

colsdone:
	VZEROUPPER
	RET
