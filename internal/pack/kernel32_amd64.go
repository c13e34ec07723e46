//go:build amd64 && !noasm

package pack

// The vector FP32 micro-kernels. The paper's single-precision path exists
// because the coprocessor's 16-lane SP vectors double SGEMM throughput
// over DGEMM (Table II); a scalar Go loop cannot reproduce that ratio —
// scalar SP and DP multiply-add issue at the same rate — so the SGEMM
// register blocking is implemented in assembly on amd64: an AVX-512 16×16
// block (one 16-lane ZMM row per accumulator, the paper's SP vector
// width) and an AVX2+FMA 4×16 block, gated behind the shared CPUID probes
// (see kernel_amd64.go), with the portable scalar kernel as the
// always-available fallback and test oracle. The two vector rungs are
// bitwise equal, like their FP64 twins.

// sgemm4x16 computes one 4×16 accumulator block of an a-tile × b-tile
// product: dst[i*16+j] = Σ_p a[p·stride/4 + i]·b[p·16 + j], each element
// accumulated in ascending p with fused multiply-add. It overwrites dst.
//
//go:noescape
func sgemm4x16(a *float32, strideBytes int64, k int64, b *float32, dst *[64]float32)

// sgemm16x16 adds one 16-row block of an a-tile × b-tile product into C:
// c[i*ldc+j] += Σ_p a[p·stride/4 + i]·b[p·16 + j] for i < rows, j < cols,
// each sum accumulated in ascending p with fused multiply-add from zero
// and added into c once. Only the rows×cols window of c is touched.
//
//go:noescape
func sgemm16x16(a *float32, strideBytes, k int64, b *float32, c *float32, ldcBytes, rows, cols int64)

// microKernel32AVX512 is MicroKernel32 on the AVX-512 rung: one sgemm16x16
// call per 16-row slab of the a-tile (two per 32-row tile). Caller
// guarantees k, rows, cols > 0, tileM a multiple of 16 and
// cols <= TileN32.
func microKernel32AVX512(aTile []float32, tileM, k int, bTile []float32, c []float32, ldc, rows, cols int) {
	_ = aTile[(k-1)*tileM+tileM-1]
	_ = bTile[k*TileN32-1]
	for r0 := 0; r0 < rows; r0 += microM32AVX512 {
		br := min(rows-r0, microM32AVX512)
		_ = c[(r0+br-1)*ldc+cols-1]
		sgemm16x16(&aTile[r0], int64(tileM)*4, int64(k), &bTile[0], &c[r0*ldc], int64(ldc)*4, int64(br), int64(cols))
	}
}

// kernel32Block runs the assembly 4×16 block: the block starting at row
// r0 of the (column-major, tileM-stride) a-tile against the full k×16
// b-tile, overwriting acc. Caller guarantees r0+4 <= tileM and k > 0.
func kernel32Block(aTile []float32, tileM, k, r0 int, bTile []float32, acc *[64]float32) {
	sgemm4x16(&aTile[r0], int64(tileM)*4, int64(k), &bTile[0], acc)
}
