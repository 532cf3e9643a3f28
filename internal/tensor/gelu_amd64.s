//go:build amd64 && !purego

#include "textflag.h"

// 8-lane bodies of the elementwise kernel family (gelu.go). Every
// product and sum is its own instruction, in the order of the scalar
// lanes geluSigma/expNeg — no FMA — so the two builds agree bitwise.
DATA geluconst<>+0x00(SB)/4, $0xbfcc422a // c0 = −2·√(2/π)
DATA geluconst<>+0x04(SB)/4, $0xbd922279 // c1 = c0·0.044715
DATA geluconst<>+0x08(SB)/4, $0x3fcc422a // k0 = −c0
DATA geluconst<>+0x0c(SB)/4, $0x3e5b33b6 // k1 = −3·c1
DATA geluconst<>+0x10(SB)/4, $0x461c4000 // x² cap 1e4
DATA geluconst<>+0x14(SB)/4, $0x80000000 // sign bit
DATA geluconst<>+0x18(SB)/4, $0x3fb8aa3b // log2(e)
DATA geluconst<>+0x1c(SB)/4, $0x3f318000 // ln2 high = 0.693359375
DATA geluconst<>+0x20(SB)/4, $0x395e8083 // ln2 low = 2.12194440e-4
DATA geluconst<>+0x24(SB)/4, $0x39506967 // p0 = 1.9875691500e-4
DATA geluconst<>+0x28(SB)/4, $0x3ab743ce // p1 = 1.3981999507e-3
DATA geluconst<>+0x2c(SB)/4, $0x3c088908 // p2 = 8.3334519073e-3
DATA geluconst<>+0x30(SB)/4, $0x3d2aa9c1 // p3 = 4.1665795894e-2
DATA geluconst<>+0x34(SB)/4, $0x3e2aaaaa // p4 = 1.6666665459e-1
DATA geluconst<>+0x38(SB)/4, $0x3f000000 // p5 = 0.5
DATA geluconst<>+0x3c(SB)/4, $0xc2aeac50 // flush cutoff −87.33655
DATA geluconst<>+0x40(SB)/4, $0xc2ae0000 // clamp −87.0 (keeps 2ⁿ normal)
DATA geluconst<>+0x44(SB)/4, $0x3f800000 // 1.0
DATA geluconst<>+0x48(SB)/4, $0x0000007f // exponent bias 127
GLOBL geluconst<>(SB), RODATA, $76

// GELUCONSTS loads the loop-resident constants into Y8–Y15.
#define GELUCONSTS \
	VBROADCASTSS geluconst<>+0x00(SB), Y15; \
	VBROADCASTSS geluconst<>+0x04(SB), Y14; \
	VBROADCASTSS geluconst<>+0x14(SB), Y13; \
	VBROADCASTSS geluconst<>+0x18(SB), Y12; \
	VBROADCASTSS geluconst<>+0x3c(SB), Y11; \
	VBROADCASTSS geluconst<>+0x40(SB), Y10; \
	VBROADCASTSS geluconst<>+0x44(SB), Y9;  \
	VBROADCASTSS geluconst<>+0x48(SB), Y8

// HORNER(c) is one unfused Horner step p = p·t + c (p in Y3, t in Y1).
#define HORNER(off) \
	VMULPS       Y1, Y3, Y3;                 \
	VBROADCASTSS geluconst<>+off(SB), Y5;    \
	VADDPS       Y5, Y3, Y3

// GELUSIGMA takes x in Y0 and leaves σ(2u) in Y1, r = 1/(1+q) in Y2,
// g = q·r in Y3 and min(x², cap) in Y4, where q = exp(−|a|) and
// a = x·(c0 + c1·x²) = −2u. Lanes with −|a| below the cutoff (and NaN
// lanes) get q = 0 exactly. Clobbers Y5 and Y6.
#define GELUSIGMA \
	VMULPS       Y0, Y0, Y4;                 \
	VBROADCASTSS geluconst<>+0x10(SB), Y5;   \
	VMINPS       Y5, Y4, Y4;                 \
	VMULPS       Y14, Y4, Y1;                \
	VADDPS       Y15, Y1, Y1;                \
	VMULPS       Y0, Y1, Y1;                 \
	VORPS        Y13, Y1, Y1;                \
	VCMPPS       $0x0d, Y11, Y1, Y6;         \
	VMAXPS       Y10, Y1, Y1;                \
	VMULPS       Y12, Y1, Y2;                \
	VROUNDPS     $0, Y2, Y2;                 \
	VBROADCASTSS geluconst<>+0x1c(SB), Y5;   \
	VMULPS       Y5, Y2, Y5;                 \
	VSUBPS       Y5, Y1, Y1;                 \
	VBROADCASTSS geluconst<>+0x20(SB), Y5;   \
	VMULPS       Y5, Y2, Y5;                 \
	VADDPS       Y5, Y1, Y1;                 \
	VBROADCASTSS geluconst<>+0x24(SB), Y3;   \
	HORNER(0x28);                            \
	HORNER(0x2c);                            \
	HORNER(0x30);                            \
	HORNER(0x34);                            \
	HORNER(0x38);                            \
	VMULPS       Y1, Y1, Y5;                 \
	VMULPS       Y5, Y3, Y3;                 \
	VADDPS       Y1, Y3, Y3;                 \
	VADDPS       Y9, Y3, Y3;                 \
	VCVTPS2DQ    Y2, Y2;                     \
	VPADDD       Y8, Y2, Y2;                 \
	VPSLLD       $23, Y2, Y2;                \
	VMULPS       Y2, Y3, Y3;                 \
	VANDPS       Y6, Y3, Y3;                 \
	VADDPS       Y9, Y3, Y2;                 \
	VDIVPS       Y2, Y9, Y2;                 \
	VMULPS       Y2, Y3, Y3;                 \
	VBLENDVPS    Y0, Y3, Y2, Y1

// func geluFwdAVX2(dst, x *float32, n int)
//
// dst[i] = x[i]·σ(2u(x[i])) for i in [0, n), n a positive multiple of
// 8 (the Go wrapper pads the tail).
TEXT ·geluFwdAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	GELUCONSTS
	SHRQ $3, CX

fwdloop:
	VMOVUPS (SI), Y0
	GELUSIGMA
	VMULPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     fwdloop

	VZEROUPPER
	RET

// func geluBwdAVX2(dx, dy, x *float32, n int)
//
// dx[i] = dy[i]·(σ + ((g·r)·x)·w), w = k0 + k1·min(x², cap), for i in
// [0, n), n a positive multiple of 8.
TEXT ·geluBwdAVX2(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	GELUCONSTS
	SHRQ $3, CX

bwdloop:
	VMOVUPS      (SI), Y0
	GELUSIGMA
	VMULPS       Y2, Y3, Y3               // g·r = σ(1−σ)
	VMULPS       Y0, Y3, Y3
	VBROADCASTSS geluconst<>+0x0c(SB), Y5
	VMULPS       Y5, Y4, Y4
	VBROADCASTSS geluconst<>+0x08(SB), Y5
	VADDPS       Y5, Y4, Y4               // w
	VMULPS       Y4, Y3, Y3
	VADDPS       Y3, Y1, Y1               // gelu′
	VMULPS       (DX), Y1, Y1
	VMOVUPS      Y1, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $32, DI
	DECQ         CX
	JNZ          bwdloop

	VZEROUPPER
	RET
