//go:build amd64 && !purego

#include "textflag.h"

// func kern6x16(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32)
//
// The AVX2+FMA micro-kernel, the FMA loop of every GEMM but the
// swapped-orientation MatMulTB (kern8x8 below; kern2x16 is this loop
// over two rows). The 6×16
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

// func kern2x16(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32)
//
// kern6x16 over two rows: the tile in Y0–Y3, one 16-float B row and
// two A broadcasts per K step, the same addressing and write-back. The
// driver runs it on the valid rows of a ragged bottom panel.
TEXT ·kern2x16(SB), NOSPLIT, $0-80
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

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JLE   k2writeback

k2kloop:
	VMOVUPS      (BX), Y12
	VMOVUPS      32(BX), Y13
	VBROADCASTSS (SI), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS (SI)(R8*1), Y15
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3

	ADDQ R11, SI
	ADDQ R12, BX
	DECQ CX
	JNZ  k2kloop

k2writeback:
	MOVBLZX acc+64(FP), AX
	TESTL   AX, AX
	JZ      k2addbias

	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	VADDPS (DI)(DX*1), Y2, Y2
	VADDPS 32(DI)(DX*1), Y3, Y3

k2addbias:
	MOVQ  bias+72(FP), AX
	TESTQ AX, AX
	JZ    k2store

	VMOVUPS (AX), Y12
	VMOVUPS 32(AX), Y13
	VADDPS  Y12, Y0, Y0
	VADDPS  Y13, Y1, Y1
	VADDPS  Y12, Y2, Y2
	VADDPS  Y13, Y3, Y3

k2store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(DX*1)
	VMOVUPS Y3, 32(DI)(DX*1)

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

// TRANSPOSE8 transposes the 8×8 block held in Y0–Y7 (row r in Yr) into
// Y8–Y15 (row c of the transpose in Y(8+c)): unpack pairs of rows,
// shuffle pairs of pairs, then exchange 128-bit halves. Y0–Y7 are
// clobbered.
#define TRANSPOSE8 \
	VUNPCKLPS  Y1, Y0, Y8;          \
	VUNPCKHPS  Y1, Y0, Y9;          \
	VUNPCKLPS  Y3, Y2, Y10;         \
	VUNPCKHPS  Y3, Y2, Y11;         \
	VUNPCKLPS  Y5, Y4, Y12;         \
	VUNPCKHPS  Y5, Y4, Y13;         \
	VUNPCKLPS  Y7, Y6, Y14;         \
	VUNPCKHPS  Y7, Y6, Y15;         \
	VSHUFPS    $0x44, Y10, Y8, Y0;  \
	VSHUFPS    $0xee, Y10, Y8, Y1;  \
	VSHUFPS    $0x44, Y11, Y9, Y2;  \
	VSHUFPS    $0xee, Y11, Y9, Y3;  \
	VSHUFPS    $0x44, Y14, Y12, Y4; \
	VSHUFPS    $0xee, Y14, Y12, Y5; \
	VSHUFPS    $0x44, Y15, Y13, Y6; \
	VSHUFPS    $0xee, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8;   \
	VPERM2F128 $0x20, Y5, Y1, Y9;   \
	VPERM2F128 $0x20, Y6, Y2, Y10;  \
	VPERM2F128 $0x20, Y7, Y3, Y11;  \
	VPERM2F128 $0x31, Y4, Y0, Y12;  \
	VPERM2F128 $0x31, Y5, Y1, Y13;  \
	VPERM2F128 $0x31, Y6, Y2, Y14;  \
	VPERM2F128 $0x31, Y7, Y3, Y15

// func kern8x8(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32)
//
// The tile of the swapped-orientation product Cᵀ = B·Aᵀ (gemm.go): an
// 8×8 product tile P = A·B over kc K steps, written back into C
// transposed. P row r lives in Yr; each K step loads one 8-float B row
// (Y8) and broadcasts eight A values against it, eight independent
// FMA chains. A element (r, kk) is at a + r·ars + kk·aks, reached
// through (SI)(R8·1), (SI)(R8·2), (SI)(R9), (SI)(R8·4), (SI)(R10),
// (SI)(R9·2), (SI)(R13) with R9 = 3·ars, R10 = 5·ars, R13 = 7·ars.
//
// Write-back: TRANSPOSE8 turns the eight rows of P into the eight C
// rows they belong to — C row j, 8 contiguous floats at c + j·ldc, is
// P's column j — then C = Pᵀ when acc is false and C = C + Pᵀ when it
// is true; then, when bias is non-nil, C += bias[0:8] on every row (the
// bias of P's rows), all as vector adds and stores.
TEXT ·kern8x8(SB), NOSPLIT, $0-80
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
	LEAQ (R9)(R8*4), R13 // 7·ars

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JLE   t8writeback

t8kloop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (SI), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS (SI)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS (SI)(R8*2), Y11
	VFMADD231PS  Y8, Y11, Y2
	VBROADCASTSS (SI)(R9*1), Y12
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS (SI)(R8*4), Y13
	VFMADD231PS  Y8, Y13, Y4
	VBROADCASTSS (SI)(R10*1), Y14
	VFMADD231PS  Y8, Y14, Y5
	VBROADCASTSS (SI)(R9*2), Y15
	VFMADD231PS  Y8, Y15, Y6
	VBROADCASTSS (SI)(R13*1), Y9
	VFMADD231PS  Y8, Y9, Y7

	ADDQ R11, SI
	ADDQ R12, BX
	DECQ CX
	JNZ  t8kloop

t8writeback:
	TRANSPOSE8
	LEAQ    (DX)(DX*2), R9  // 3·ldc
	LEAQ    (DX)(DX*4), R10 // 5·ldc
	LEAQ    (R9)(DX*4), R13 // 7·ldc
	MOVBLZX acc+64(FP), AX
	TESTL   AX, AX
	JZ      t8bias

	VADDPS (DI), Y8, Y8
	VADDPS (DI)(DX*1), Y9, Y9
	VADDPS (DI)(DX*2), Y10, Y10
	VADDPS (DI)(R9*1), Y11, Y11
	VADDPS (DI)(DX*4), Y12, Y12
	VADDPS (DI)(R10*1), Y13, Y13
	VADDPS (DI)(R9*2), Y14, Y14
	VADDPS (DI)(R13*1), Y15, Y15

t8bias:
	MOVQ  bias+72(FP), AX
	TESTQ AX, AX
	JZ    t8store

	VMOVUPS (AX), Y0
	VADDPS  Y0, Y8, Y8
	VADDPS  Y0, Y9, Y9
	VADDPS  Y0, Y10, Y10
	VADDPS  Y0, Y11, Y11
	VADDPS  Y0, Y12, Y12
	VADDPS  Y0, Y13, Y13
	VADDPS  Y0, Y14, Y14
	VADDPS  Y0, Y15, Y15

t8store:
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(DX*1)
	VMOVUPS Y10, (DI)(DX*2)
	VMOVUPS Y11, (DI)(R9*1)
	VMOVUPS Y12, (DI)(DX*4)
	VMOVUPS Y13, (DI)(R10*1)
	VMOVUPS Y14, (DI)(R9*2)
	VMOVUPS Y15, (DI)(R13*1)

	VZEROUPPER
	RET

// func transpose8AVX2(dst *float32, ldd int, src *float32, lds int)
//
// dst[c·ldd + r] = src[r·lds + c] for r, c < 8: one strided 8×8 block
// transpose, the panel packs' and the attention dS repack's only one.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R8
	SHLQ $2, DX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9  // 3·lds
	LEAQ (R8)(R8*4), R10 // 5·lds
	LEAQ (R9)(R8*4), R11 // 7·lds

	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R9*1), Y3
	VMOVUPS (SI)(R8*4), Y4
	VMOVUPS (SI)(R10*1), Y5
	VMOVUPS (SI)(R9*2), Y6
	VMOVUPS (SI)(R11*1), Y7
	TRANSPOSE8
	LEAQ    (DX)(DX*2), R9
	LEAQ    (DX)(DX*4), R10
	LEAQ    (R9)(DX*4), R11
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(DX*1)
	VMOVUPS Y10, (DI)(DX*2)
	VMOVUPS Y11, (DI)(R9*1)
	VMOVUPS Y12, (DI)(DX*4)
	VMOVUPS Y13, (DI)(R10*1)
	VMOVUPS Y14, (DI)(R9*2)
	VMOVUPS Y15, (DI)(R11*1)

	VZEROUPPER
	RET
