//go:build amd64 && !noasm

package pack

// The vector FP64 micro-kernels. The paper's DGEMM throughput rests on a
// hand-tuned register-blocked vector kernel (Basic Kernel 2, Section
// III-A2); the portable scalar Go loop reproduces its arithmetic but not
// its throughput — scalar multiply-add issues one flop-pair per cycle
// where a 512-bit FMA issues sixteen. On amd64 two rungs sit above the
// scalar kernel:
//
//   - AVX-512F (dgemm30x8): the paper's Basic Kernel 2 register plan one
//     for one. Z0..Z29 hold the whole 30×8 a-tile × b-tile block, Z30 the
//     8-wide b row, and each a element is broadcast from memory into its
//     FMA; the epilogue adds the block into C under a column mask, so
//     partial tiles need no staging buffer.
//   - AVX2+FMA (dgemm6x8): a 6×8 register block, 30 = 5·6, so the block
//     walks a full-height a-tile without ever straddling the tile
//     boundary, and 8 doubles of a b-tile row are exactly two YMM loads.
//     Y0..Y11 hold the accumulators (two 4-lane halves per row), Y12/Y13
//     the b row, Y14/Y15 the broadcast a values. One k step is 2 b loads,
//     6 broadcasts and 12 FMAs = 96 fused flops.
//
// Both rungs accumulate every element as the same zero-seeded ascending-p
// FMA chain and add it into C once, C first, so they are bitwise equal.
// The AVX2 probe (haveAsmKernel) requires FMA3 + AVX + AVX2 in CPUID and
// XMM/YMM state enabled in XCR0 — the same requirements as the FP32
// kernel, so one probe serves both precisions; the AVX-512 probe
// (haveAVX512Kernel) adds AVX512F and the opmask/ZMM state. Build with
// the `noasm` tag to compile the pure-Go scalar kernels only.

// dgemm6x8 computes one 6×8 accumulator block of an a-tile × b-tile
// product: dst[i*8+j] = Σ_p a[p·stride/8 + i]·b[p·8 + j], each element
// accumulated in ascending p with fused multiply-add. It overwrites dst.
//
//go:noescape
func dgemm6x8(a *float64, strideBytes int64, k int64, b *float64, dst *[48]float64)

// dgemm30x8 adds one a-tile × b-tile block into C: c[i*ldc+j] +=
// Σ_p a[p·stride/8 + i]·b[p·8 + j] for i < rows, j < cols, each sum
// accumulated in ascending p with fused multiply-add from zero and added
// into c once. All 30 rows of the a-tile are computed (padding rows are
// zero); only the rows×cols window of c is read or written.
//
//go:noescape
func dgemm30x8(a *float64, strideBytes, k int64, b *float64, c *float64, ldcBytes, rows, cols int64)

func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// haveAsmKernel reports whether the CPU and OS support the AVX2+FMA
// kernels (FP64 6×8 and FP32 4×16 alike): FMA3 + AVX + AVX2 in CPUID and
// XMM/YMM state enabled in XCR0.
func haveAsmKernel() bool {
	maxID, _, _, _ := cpuidLeaf(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidLeaf(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidLeaf(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// haveAVX512Kernel reports whether the CPU and OS support the AVX-512
// kernels (FP64 30×8 and FP32 16×16): the AVX2 requirements, plus
// AVX512F in CPUID and the opmask and ZMM state enabled in XCR0 (bits
// 1, 2, 5, 6 and 7).
func haveAVX512Kernel() bool {
	if !haveAsmKernel() {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0xE6 != 0xE6 {
		return false
	}
	_, b7, _, _ := cpuidLeaf(7, 0)
	const avx512f = 1 << 16
	return b7&avx512f != 0
}

// microKernelAVX512 is MicroKernel on the AVX-512 rung: one dgemm30x8
// call per 30-row slab of the a-tile. Caller guarantees k, rows, cols > 0,
// tileM a multiple of DefaultTileM and cols <= TileN. The slice
// expressions bound-check every element the assembly touches.
func microKernelAVX512(aTile []float64, tileM, k int, bTile []float64, c []float64, ldc, rows, cols int) {
	_ = aTile[(k-1)*tileM+tileM-1]
	_ = bTile[k*TileN-1]
	for r0 := 0; r0 < rows; r0 += DefaultTileM {
		br := min(rows-r0, DefaultTileM)
		_ = c[(r0+br-1)*ldc+cols-1]
		dgemm30x8(&aTile[r0], int64(tileM)*8, int64(k), &bTile[0], &c[r0*ldc], int64(ldc)*8, int64(br), int64(cols))
	}
}

// kernelBlock runs the assembly 6×8 block: the block starting at row r0
// of the (column-major, tileM-stride) a-tile against the full k×8 b-tile,
// overwriting acc. Caller guarantees r0+6 <= tileM and k > 0; padding
// rows of a partial tile are zero, so computing them is harmless (the
// caller simply does not write them back).
func kernelBlock(aTile []float64, tileM, k, r0 int, bTile []float64, acc *[48]float64) {
	dgemm6x8(&aTile[r0], int64(tileM)*8, int64(k), &bTile[0], acc)
}
