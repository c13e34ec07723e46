// Double-precision micro-kernels — the AVX-512 30×8 tile kernel and the
// AVX2 6×8 block — and the CPUID probes that gate the vector kernels. See
// kernel_amd64.go for the calling contracts.

//go:build amd64 && !noasm

#include "textflag.h"

// ADDROW64 adds one accumulator row into C under the column mask K1,
// steps DI to the next C row, and leaves once rows rows are written.
#define ADDROW64(acc) \
	VMOVUPD.Z (DI), K1, Z31 \
	VADDPD    acc, Z31, Z31 \
	VMOVUPD   Z31, K1, (DI) \
	ADDQ      DX, DI \
	DECQ      R8 \
	JZ        done64

// func dgemm6x8(a *float64, strideBytes int64, k int64, b *float64, dst *[48]float64)
//
// dst[i][j] = sum_p a[p*stride + i] * b[p*8 + j]   (i<6, j<8, fused)
//
// Register plan (AVX2): Y0..Y11 hold the 6×8 accumulator block (two
// 4-lane halves per row), Y12/Y13 the 8-wide b row, Y14/Y15 the broadcast
// a values of the current column, reused across the three row pairs. One
// k step is 2 b loads, 6 broadcasts and 12 FMAs = 96 fused flops.
//
// Each FMA takes b as its first multiplicand and a as its second, the
// order dgemm30x8 is bound to (its a broadcast must be the memory
// operand): when a and b are both NaN the FMA returns b's payload, so the
// two rungs agree even on NaN payloads.
TEXT ·dgemm6x8(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ strideBytes+8(FP), AX
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ dst+32(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JE    store

loop:
	VMOVUPD      (BX), Y12
	VMOVUPD      32(BX), Y13
	VBROADCASTSD (SI), Y14
	VBROADCASTSD 8(SI), Y15
	VFMADD231PD  Y14, Y12, Y0
	VFMADD231PD  Y14, Y13, Y1
	VFMADD231PD  Y15, Y12, Y2
	VFMADD231PD  Y15, Y13, Y3
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	VFMADD231PD  Y14, Y12, Y4
	VFMADD231PD  Y14, Y13, Y5
	VFMADD231PD  Y15, Y12, Y6
	VFMADD231PD  Y15, Y13, Y7
	VBROADCASTSD 32(SI), Y14
	VBROADCASTSD 40(SI), Y15
	VFMADD231PD  Y14, Y12, Y8
	VFMADD231PD  Y14, Y13, Y9
	VFMADD231PD  Y15, Y12, Y10
	VFMADD231PD  Y15, Y13, Y11
	ADDQ         AX, SI
	ADDQ         $64, BX
	DECQ         CX
	JNE          loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VMOVUPD Y10, 320(DI)
	VMOVUPD Y11, 352(DI)
	VZEROUPPER
	RET

// func dgemm30x8(a *float64, strideBytes int64, k int64, b *float64, c *float64, ldcBytes int64, rows int64, cols int64)
//
// c[i][j] += sum_p a[p*stride + i] * b[p*8 + j]   (i<rows<=30, j<cols<=8, fused)
//
// Register plan (AVX-512F, 32 ZMM) — the paper's Basic Kernel 2, one for
// one: Z0..Z29 hold the whole 30×8 accumulator block (one 8-lane row
// each), Z30 the 8-wide b row of the current k step, and each a element
// is broadcast straight from memory into its FMA ({1to8}). One k step is
// 1 b load and 30 broadcast FMAs = 480 fused flops. Z31 stages C in the
// epilogue.
//
// Epilogue: K1 masks the cols live lanes; each of the first rows rows
// loads its C row under K1 (zeroing), adds the accumulator with C as the
// first source operand — the operand order of the Go `row[j] += sums[j]`
// of the AVX2 path, so even NaN payloads match it — and stores back under
// K1. Lanes and rows outside the rows×cols window are never touched.
TEXT ·dgemm30x8(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ strideBytes+8(FP), AX
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldcBytes+40(FP), DX
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), R9

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29

loop64:
	VMOVUPD (BX), Z30
	VFMADD231PD.BCST (SI), Z30, Z0
	VFMADD231PD.BCST 8(SI), Z30, Z1
	VFMADD231PD.BCST 16(SI), Z30, Z2
	VFMADD231PD.BCST 24(SI), Z30, Z3
	VFMADD231PD.BCST 32(SI), Z30, Z4
	VFMADD231PD.BCST 40(SI), Z30, Z5
	VFMADD231PD.BCST 48(SI), Z30, Z6
	VFMADD231PD.BCST 56(SI), Z30, Z7
	VFMADD231PD.BCST 64(SI), Z30, Z8
	VFMADD231PD.BCST 72(SI), Z30, Z9
	VFMADD231PD.BCST 80(SI), Z30, Z10
	VFMADD231PD.BCST 88(SI), Z30, Z11
	VFMADD231PD.BCST 96(SI), Z30, Z12
	VFMADD231PD.BCST 104(SI), Z30, Z13
	VFMADD231PD.BCST 112(SI), Z30, Z14
	VFMADD231PD.BCST 120(SI), Z30, Z15
	VFMADD231PD.BCST 128(SI), Z30, Z16
	VFMADD231PD.BCST 136(SI), Z30, Z17
	VFMADD231PD.BCST 144(SI), Z30, Z18
	VFMADD231PD.BCST 152(SI), Z30, Z19
	VFMADD231PD.BCST 160(SI), Z30, Z20
	VFMADD231PD.BCST 168(SI), Z30, Z21
	VFMADD231PD.BCST 176(SI), Z30, Z22
	VFMADD231PD.BCST 184(SI), Z30, Z23
	VFMADD231PD.BCST 192(SI), Z30, Z24
	VFMADD231PD.BCST 200(SI), Z30, Z25
	VFMADD231PD.BCST 208(SI), Z30, Z26
	VFMADD231PD.BCST 216(SI), Z30, Z27
	VFMADD231PD.BCST 224(SI), Z30, Z28
	VFMADD231PD.BCST 232(SI), Z30, Z29
	ADDQ AX, SI
	ADDQ $64, BX
	DECQ CX
	JNE  loop64

	MOVL  $1, AX
	MOVQ  R9, CX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1

	ADDROW64(Z0)
	ADDROW64(Z1)
	ADDROW64(Z2)
	ADDROW64(Z3)
	ADDROW64(Z4)
	ADDROW64(Z5)
	ADDROW64(Z6)
	ADDROW64(Z7)
	ADDROW64(Z8)
	ADDROW64(Z9)
	ADDROW64(Z10)
	ADDROW64(Z11)
	ADDROW64(Z12)
	ADDROW64(Z13)
	ADDROW64(Z14)
	ADDROW64(Z15)
	ADDROW64(Z16)
	ADDROW64(Z17)
	ADDROW64(Z18)
	ADDROW64(Z19)
	ADDROW64(Z20)
	ADDROW64(Z21)
	ADDROW64(Z22)
	ADDROW64(Z23)
	ADDROW64(Z24)
	ADDROW64(Z25)
	ADDROW64(Z26)
	ADDROW64(Z27)
	ADDROW64(Z28)
	ADDROW64(Z29)

done64:
	VZEROUPPER
	RET

// func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
