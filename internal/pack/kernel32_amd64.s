// Single-precision micro-kernels: the AVX-512 16×16 block with its masked
// epilogue and the AVX2 4×16 block. See kernel32_amd64.go for the calling
// contracts; the CPUID probes live in kernel_amd64.s.

//go:build amd64 && !noasm

#include "textflag.h"

// ADDROW32 adds one accumulator row into C under the column mask K1,
// steps DI to the next C row, and leaves once rows rows are written.
#define ADDROW32(acc) \
	VMOVUPS.Z (DI), K1, Z17 \
	VADDPS    acc, Z17, Z17 \
	VMOVUPS   Z17, K1, (DI) \
	ADDQ      DX, DI \
	DECQ      R8 \
	JZ        done32

// func sgemm4x16(a *float32, strideBytes int64, k int64, b *float32, dst *[64]float32)
//
// dst[i][j] = sum_p a[p*stride + i] * b[p*16 + j]   (i<4, j<16, fused)
//
// Register plan (AVX2): Y0..Y7 hold the 4×16 accumulator block (two
// 8-lane halves per row), Y8..Y11 the four broadcast a values of the
// current column, Y12/Y13 the 16-wide b row. One k step is 2 b loads,
// 4 broadcasts and 8 FMAs = 128 fused flops. As in dgemm6x8, b is each
// FMA's first multiplicand, matching sgemm16x16's NaN-payload choice.
TEXT ·sgemm4x16(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ strideBytes+8(FP), AX
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ dst+32(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JE    store

loop:
	VMOVUPS      (BX), Y12
	VMOVUPS      32(BX), Y13
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	VFMADD231PS  Y8, Y12, Y0
	VFMADD231PS  Y8, Y13, Y1
	VFMADD231PS  Y9, Y12, Y2
	VFMADD231PS  Y9, Y13, Y3
	VFMADD231PS  Y10, Y12, Y4
	VFMADD231PS  Y10, Y13, Y5
	VFMADD231PS  Y11, Y12, Y6
	VFMADD231PS  Y11, Y13, Y7
	ADDQ         AX, SI
	ADDQ         $64, BX
	DECQ         CX
	JNE          loop

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func sgemm16x16(a *float32, strideBytes int64, k int64, b *float32, c *float32, ldcBytes int64, rows int64, cols int64)
//
// c[i][j] += sum_p a[p*stride + i] * b[p*16 + j]   (i<rows<=16, j<cols<=16, fused)
//
// Register plan (AVX-512F): Z0..Z15 hold the 16×16 accumulator block (one
// 16-lane row each), Z16 the 16-wide b row, and each a element is
// broadcast from memory into its FMA ({1to16}). One k step is 1 b load
// and 16 broadcast FMAs = 512 fused flops; a 32-row a-tile takes two
// calls. Z17 stages C in the epilogue, which is dgemm30x8's: C rows
// loaded and stored under the column mask K1, C the first source operand
// of the add, nothing outside the rows×cols window touched.
TEXT ·sgemm16x16(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ strideBytes+8(FP), AX
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldcBytes+40(FP), DX
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), R9

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

loop32:
	VMOVUPS (BX), Z16
	VFMADD231PS.BCST (SI), Z16, Z0
	VFMADD231PS.BCST 4(SI), Z16, Z1
	VFMADD231PS.BCST 8(SI), Z16, Z2
	VFMADD231PS.BCST 12(SI), Z16, Z3
	VFMADD231PS.BCST 16(SI), Z16, Z4
	VFMADD231PS.BCST 20(SI), Z16, Z5
	VFMADD231PS.BCST 24(SI), Z16, Z6
	VFMADD231PS.BCST 28(SI), Z16, Z7
	VFMADD231PS.BCST 32(SI), Z16, Z8
	VFMADD231PS.BCST 36(SI), Z16, Z9
	VFMADD231PS.BCST 40(SI), Z16, Z10
	VFMADD231PS.BCST 44(SI), Z16, Z11
	VFMADD231PS.BCST 48(SI), Z16, Z12
	VFMADD231PS.BCST 52(SI), Z16, Z13
	VFMADD231PS.BCST 56(SI), Z16, Z14
	VFMADD231PS.BCST 60(SI), Z16, Z15
	ADDQ AX, SI
	ADDQ $64, BX
	DECQ CX
	JNE  loop32

	MOVL  $1, AX
	MOVQ  R9, CX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1

	ADDROW32(Z0)
	ADDROW32(Z1)
	ADDROW32(Z2)
	ADDROW32(Z3)
	ADDROW32(Z4)
	ADDROW32(Z5)
	ADDROW32(Z6)
	ADDROW32(Z7)
	ADDROW32(Z8)
	ADDROW32(Z9)
	ADDROW32(Z10)
	ADDROW32(Z11)
	ADDROW32(Z12)
	ADDROW32(Z13)
	ADDROW32(Z14)
	ADDROW32(Z15)

done32:
	VZEROUPPER
	RET
