//go:build amd64 && !purego

#include "textflag.h"

// func kern6x16(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32)
//
// The AVX2+FMA micro-kernel, the one FMA loop every GEMM runs. The 6×16
// C tile lives in Y0–Y11 (two 8-lane vectors per row). Each K step
// loads one 16-float B row (Y12/Y13) and broadcasts six A values
// against it, for 12 FMAs per 8 load-port µops — FMA-throughput bound
// on Haswell and newer.
//
// Operands are addressed by element strides, so the kernel reads a
// packed panel or the caller's matrix alike: A element (r, kk) is at
// a + r·ars + kk·aks, B row kk at b + kk·bks. The packed panels
// (gemm.go) are the (ars, aks, bks) = (1, 6, 16) instance; row-major A
// read in place is (lda, 1), row-major B in place is bks = ldb. The six
// A rows are reached through the addressing modes (SI), (SI)(R8·1),
// (SI)(R8·2), (SI)(R9), (SI)(R8·4), (SI)(R10) with R9 = 3·ars and
// R10 = 5·ars, so a K step costs the same whatever the strides.
//
// Write-back: C = Σ when acc is false (the first K strip of a
// non-accumulating product — nothing pre-zeroes C), C = C + Σ when it
// is true; then, when bias is non-nil, C += bias[0:16] on every row
// (the last K strip's write-back), in that order.
TEXT ·kern6x16(SB), NOSPLIT, $0-80
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R8
	MOVQ aks+24(FP), R11
	MOVQ b+32(FP), BX
	MOVQ bks+40(FP), R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), DX
	SHLQ $2, R8  // strides in bytes
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, DX
	LEAQ (R8)(R8*2), R9  // 3·ars
	LEAQ (R8)(R8*4), R10 // 5·ars

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	TESTQ CX, CX
	JLE   writeback

kloop:
	VMOVUPS (BX), Y12
	VMOVUPS 32(BX), Y13

	VBROADCASTSS (SI), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS (SI)(R8*1), Y15
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3
	VBROADCASTSS (SI)(R8*2), Y14
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VBROADCASTSS (SI)(R9*1), Y15
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7
	VBROADCASTSS (SI)(R8*4), Y14
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9
	VBROADCASTSS (SI)(R10*1), Y15
	VFMADD231PS  Y12, Y15, Y10
	VFMADD231PS  Y13, Y15, Y11

	ADDQ R11, SI
	ADDQ R12, BX
	DECQ CX
	JNZ  kloop

writeback:
	MOVBLZX acc+64(FP), AX
	TESTL   AX, AX
	JZ      addbias

	MOVQ   DI, R13
	VADDPS (R13), Y0, Y0
	VADDPS 32(R13), Y1, Y1
	ADDQ   DX, R13
	VADDPS (R13), Y2, Y2
	VADDPS 32(R13), Y3, Y3
	ADDQ   DX, R13
	VADDPS (R13), Y4, Y4
	VADDPS 32(R13), Y5, Y5
	ADDQ   DX, R13
	VADDPS (R13), Y6, Y6
	VADDPS 32(R13), Y7, Y7
	ADDQ   DX, R13
	VADDPS (R13), Y8, Y8
	VADDPS 32(R13), Y9, Y9
	ADDQ   DX, R13
	VADDPS (R13), Y10, Y10
	VADDPS 32(R13), Y11, Y11

addbias:
	MOVQ  bias+72(FP), AX
	TESTQ AX, AX
	JZ    store

	VMOVUPS (AX), Y12
	VMOVUPS 32(AX), Y13
	VADDPS  Y12, Y0, Y0
	VADDPS  Y13, Y1, Y1
	VADDPS  Y12, Y2, Y2
	VADDPS  Y13, Y3, Y3
	VADDPS  Y12, Y4, Y4
	VADDPS  Y13, Y5, Y5
	VADDPS  Y12, Y6, Y6
	VADDPS  Y13, Y7, Y7
	VADDPS  Y12, Y8, Y8
	VADDPS  Y13, Y9, Y9
	VADDPS  Y12, Y10, Y10
	VADDPS  Y13, Y11, Y11

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)

	VZEROUPPER
	RET

// func kern6x16Panels(kc int, ap, bp, cp *float32, n int)
//
// The attention score strips: n consecutive packed A panels (kc steps
// of 6 values each, so kc·6 floats apart) against one packed B panel,
// each 6×16 product stored — not accumulated — panel-major at
// cp + p·96 floats (row stride 16). Same k steps as kern6x16 at the
// packed strides, so each element is bitwise what kern6x16 stores.
TEXT ·kern6x16Panels(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), R8
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), R9
	MOVQ cp+24(FP), DI
	MOVQ n+32(FP), DX

panel:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	MOVQ   R9, BX
	MOVQ   R8, CX
	TESTQ  CX, CX
	JLE    pstore

pkloop:
	VMOVUPS (BX), Y12
	VMOVUPS 32(BX), Y13

	VBROADCASTSS (SI), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS 4(SI), Y15
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3
	VBROADCASTSS 8(SI), Y14
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VBROADCASTSS 12(SI), Y15
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7
	VBROADCASTSS 16(SI), Y14
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9
	VBROADCASTSS 20(SI), Y15
	VFMADD231PS  Y12, Y15, Y10
	VFMADD231PS  Y13, Y15, Y11

	ADDQ $24, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  pkloop

pstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VMOVUPS Y8, 256(DI)
	VMOVUPS Y9, 288(DI)
	VMOVUPS Y10, 320(DI)
	VMOVUPS Y11, 352(DI)
	ADDQ    $384, DI
	DECQ    DX
	JNZ     panel

	VZEROUPPER
	RET
