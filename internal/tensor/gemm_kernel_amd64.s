//go:build amd64 && !purego

#include "textflag.h"

// func kern6x16(kc int, ap, bp, cp *float32, ldc int)
//
// AVX2+FMA micro-kernel for the packed GEMM. The 6×16 C tile lives in
// Y0–Y11 (two 8-lane vectors per row). Each K step loads one packed B
// row (Y12/Y13) and broadcasts the six packed A values against it, for
// 12 FMAs per 6 load-port µops — FMA-throughput bound on Haswell and
// newer. The tile is added into C at the end (the driver pre-zeroes C
// for the non-accumulating case).
//
// Packed layouts (see gemm.go): ap[kk*6 + r], bp[kk*16 + j].
TEXT ·kern6x16(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ cp+24(FP), DI
	MOVQ ldc+32(FP), DX

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
	JNZ  kloop

writeback:
	SHLQ $2, DX // ldc in bytes

	VMOVUPS (DI), Y12
	VADDPS  Y12, Y0, Y0
	VMOVUPS Y0, (DI)
	VMOVUPS 32(DI), Y13
	VADDPS  Y13, Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y12
	VADDPS  Y12, Y2, Y2
	VMOVUPS Y2, (DI)
	VMOVUPS 32(DI), Y13
	VADDPS  Y13, Y3, Y3
	VMOVUPS Y3, 32(DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y12
	VADDPS  Y12, Y4, Y4
	VMOVUPS Y4, (DI)
	VMOVUPS 32(DI), Y13
	VADDPS  Y13, Y5, Y5
	VMOVUPS Y5, 32(DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y12
	VADDPS  Y12, Y6, Y6
	VMOVUPS Y6, (DI)
	VMOVUPS 32(DI), Y13
	VADDPS  Y13, Y7, Y7
	VMOVUPS Y7, 32(DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y12
	VADDPS  Y12, Y8, Y8
	VMOVUPS Y8, (DI)
	VMOVUPS 32(DI), Y13
	VADDPS  Y13, Y9, Y9
	VMOVUPS Y9, 32(DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y12
	VADDPS  Y12, Y10, Y10
	VMOVUPS Y10, (DI)
	VMOVUPS 32(DI), Y13
	VADDPS  Y13, Y11, Y11
	VMOVUPS Y11, 32(DI)

	VZEROUPPER
	RET

// func kern6x16Panels(kc int, ap, bp, cp *float32, n int)
//
// The attention score strips: n consecutive packed A panels (kc steps
// of 6 values each, so kc·6 floats apart) against one packed B panel,
// each 6×16 product stored — not accumulated — panel-major at
// cp + p·96 floats (row stride 16). Same k loop as kern6x16, so each
// element is bitwise what kern6x16 adds into a zeroed tile.
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
