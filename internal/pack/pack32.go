package pack

import (
	"sync"

	"phihpl/internal/matrix"
)

// Single-precision packing and micro-kernel, mirroring the float64 path.
// The paper evaluates SGEMM alongside DGEMM (Table II): the SP vector is
// 16 lanes wide, so b-tiles are 16 columns. The a-tile is 32 rows — the
// same register-blocked shape as the paper's 30-row Basic Kernel 2,
// rounded up to a multiple of the 4-row FMA block so the vector kernel
// never straddles a tile boundary (padding rows are zero and are simply
// not written back).

// TileN32 is the single-precision b-tile width: 16 floats, one 512-bit
// vector register.
const TileN32 = 16

// DefaultTileM32 is the single-precision a-tile height: eight 4×16
// register blocks.
const DefaultTileM32 = 32

// microM32AVX512 is the row height of the AVX-512 FP32 register block:
// 16 ZMM accumulators of one 16-lane row each, so a 32-row a-tile is two
// blocks. microM32 is the AVX2 block's: four rows of two YMM halves.
const (
	microM32AVX512 = 16
	microM32       = 4
)

// DisableVectorKernel32 forces the portable scalar FP32 micro-kernel even
// when a vector kernel (AVX-512 or AVX2+FMA) is available. The scalar
// kernel is the bitwise reference for blas.Sgemm (unfused multiply-add,
// same per-element grouping); tests set this to pin the cross-kernel
// oracle. It is not safe to change concurrently with running kernels. The
// PHIHPL_DISABLE_VECTOR_KERNEL environment variable sets it at startup
// (see pack.go).
var DisableVectorKernel32 = false

// VectorKernel32 reports whether a fused vector FP32 kernel is available
// on this CPU (and OS); the FP32 rungs share the FP64 probes (both need
// FMA3+AVX2, and AVX512F for the top rung). When false, MicroKernel32
// always runs the scalar fallback.
func VectorKernel32() bool { return vectorKernel }

// Kernel32Name names the FP32 micro-kernel rung MicroKernel32 runs for
// the default tile geometry under the current settings: "avx512", "avx2"
// or "scalar".
func Kernel32Name() string {
	return rungName(vectorKernel && !DisableVectorKernel32, avx512Kernel)
}

// A32 is a float32 matrix packed into TileM×K column-major tiles. Partial
// bottom tiles are zero-padded to full height.
type A32 struct {
	M, K  int
	TileM int
	Data  []float32
}

// Tiles returns the number of row tiles.
func (p *A32) Tiles() int { return (p.M + p.TileM - 1) / p.TileM }

// Tile returns tile t's backing slice (column-major).
func (p *A32) Tile(t int) []float32 {
	sz := p.TileM * p.K
	return p.Data[t*sz : (t+1)*sz]
}

// TileRows returns the real (unpadded) rows of tile t.
func (p *A32) TileRows(t int) int {
	r := p.M - t*p.TileM
	if r > p.TileM {
		r = p.TileM
	}
	return r
}

// PackA32 packs an M×K row-major float32 matrix (leading dimension lda).
func PackA32(a []float32, m, k, lda int, tileM int) *A32 {
	if tileM < 1 {
		tileM = DefaultTileM32
	}
	p := &A32{M: m, K: k, TileM: tileM}
	p.Data = make([]float32, p.Tiles()*tileM*k)
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		rows := p.TileRows(t)
		base := t * tileM
		for i := 0; i < rows; i++ {
			src := a[(base+i)*lda : (base+i)*lda+k]
			for kk, v := range src {
				tile[kk*tileM+i] = v
			}
		}
	}
	return p
}

// B32 is a float32 matrix packed into K×16 row-major tiles. Partial right
// tiles are zero-padded to full width.
type B32 struct {
	K, N int
	Data []float32
}

// Tiles returns the number of column tiles.
func (p *B32) Tiles() int { return (p.N + TileN32 - 1) / TileN32 }

// Tile returns tile t's backing slice (row-major).
func (p *B32) Tile(t int) []float32 {
	sz := p.K * TileN32
	return p.Data[t*sz : (t+1)*sz]
}

// TileCols returns the real columns of tile t.
func (p *B32) TileCols(t int) int {
	c := p.N - t*TileN32
	if c > TileN32 {
		c = TileN32
	}
	return c
}

// PackB32 packs a K×N row-major float32 matrix (leading dimension ldb).
func PackB32(b []float32, k, n, ldb int) *B32 {
	p := &B32{K: k, N: n}
	p.Data = make([]float32, p.Tiles()*k*TileN32)
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		cols := p.TileCols(t)
		base := t * TileN32
		for kk := 0; kk < k; kk++ {
			copy(tile[kk*TileN32:kk*TileN32+cols], b[kk*ldb+base:kk*ldb+base+cols])
		}
	}
	return p
}

// PackATileOp32 packs tile t of the K-block [k0, k0+p.K) of op(src),
// scaled by alpha, into p.Data — the single-precision mirror of
// PackATileOp. Padding rows of a partial bottom tile are explicitly
// zeroed, so p.Data may be a recycled buffer with stale contents. Tiles
// are independent and safe to pack in parallel; alpha is folded here so
// the micro-kernel's per-element arithmetic is (alpha·a)·b, matching the
// reference loop's.
func PackATileOp32(p *A32, src *matrix.Dense32, trans bool, alpha float32, k0, t int) {
	tile := p.Tile(t)
	rows := p.TileRows(t)
	base := t * p.TileM
	tm := p.TileM
	if rows < tm {
		for kk := 0; kk < p.K; kk++ {
			pad := tile[kk*tm+rows : (kk+1)*tm]
			for i := range pad {
				pad[i] = 0
			}
		}
	}
	if !trans {
		for i := 0; i < rows; i++ {
			srcRow := src.Row(base + i)[k0 : k0+p.K]
			for kk, v := range srcRow {
				tile[kk*tm+i] = alpha * v
			}
		}
		return
	}
	// op(src)(i, kk) = src(k0+kk, base+i): row k0+kk of src holds the
	// tile's k-column kk contiguously.
	for kk := 0; kk < p.K; kk++ {
		srcRow := src.Row(k0 + kk)[base : base+rows]
		dst := tile[kk*tm : kk*tm+rows]
		for i, v := range srcRow {
			dst[i] = alpha * v
		}
	}
}

// PackBTileOp32 packs tile t of the K-block [k0, k0+p.K) of op(src) into
// p.Data, the single-precision mirror of PackBTileOp. Padding columns of
// a partial right tile are explicitly zeroed.
func PackBTileOp32(p *B32, src *matrix.Dense32, trans bool, k0, t int) {
	tile := p.Tile(t)
	cols := p.TileCols(t)
	base := t * TileN32
	if cols < TileN32 {
		for kk := 0; kk < p.K; kk++ {
			pad := tile[kk*TileN32+cols : (kk+1)*TileN32]
			for j := range pad {
				pad[j] = 0
			}
		}
	}
	if !trans {
		for kk := 0; kk < p.K; kk++ {
			copy(tile[kk*TileN32:kk*TileN32+cols], src.Row(k0 + kk)[base:base+cols])
		}
		return
	}
	// op(src)(kk, j) = src(base+j, k0+kk): row base+j of src holds the
	// tile's column j contiguously over kk.
	for j := 0; j < cols; j++ {
		srcRow := src.Row(base + j)[k0 : k0+p.K]
		for kk, v := range srcRow {
			tile[kk*TileN32+j] = v
		}
	}
}

// MicroKernel32 computes the rows×cols corner of c += a-tile × b-tile in
// single precision, the SGEMM analogue of MicroKernel. c is row-major
// with leading dimension ldc, starting at the tile's top-left element.
//
// Two kinds of kernel sit behind this entry point:
//
//   - The vector kernels (amd64), each element accumulated in ascending p
//     with fused multiply-add — the register blocking of the paper's
//     SGEMM, which needs real vector FMA to show SP's 2× throughput over
//     DP (scalar SP and DP multiply-add issue at the same rate, so no
//     scalar loop can reproduce Table II). With AVX-512F a 32-row tile is
//     two 16×16 blocks of 16 ZMM accumulators, added into c in assembly
//     under a column mask; with AVX2+FMA it is eight 4×16 blocks. The two
//     rungs are bitwise equal.
//   - The portable scalar kernel: row-at-a-time with 16 scalar
//     accumulators, unfused multiply-add in the same ascending-p order.
//     This path is bit-for-bit the arithmetic of the blas.Sgemm reference
//     loop and serves as its oracle.
//
// All paths perform every product unconditionally (no zero-skips, NaN
// and Inf propagate per IEEE), accumulate each element in ascending p,
// and add the block sum into c exactly once — so for a fixed k the
// accumulation order of each element is independent of the tile's
// position, the matrix partitioning and the worker count. The vector and
// scalar paths differ only in product rounding (fused vs. separate), so
// results are deterministic on a given machine and element-wise within
// O(k)·ulp of each other across machines.
func MicroKernel32(aTile []float32, tileM, k int, bTile []float32, c []float32, ldc, rows, cols int) {
	if k <= 0 || rows <= 0 || cols <= 0 {
		return
	}
	switch {
	case DisableVectorKernel32:
	case avx512Kernel && tileM%microM32AVX512 == 0:
		microKernel32AVX512(aTile, tileM, k, bTile, c, ldc, rows, cols)
		return
	case vectorKernel && tileM%microM32 == 0:
		microKernel32AVX2(aTile, tileM, k, bTile, c, ldc, rows, cols)
		return
	}
	microKernel32Scalar(aTile, tileM, k, bTile, c, ldc, rows, cols)
}

// microKernel32AVX2 is MicroKernel32 on the AVX2 rung: 4×16 assembly
// blocks staged through acc, added into c in Go. Caller guarantees tileM
// is a multiple of microM32. Tests call it directly to hold the AVX-512
// rung to it bit for bit.
func microKernel32AVX2(aTile []float32, tileM, k int, bTile []float32, c []float32, ldc, rows, cols int) {
	var acc [microM32 * TileN32]float32
	for r0 := 0; r0 < rows; r0 += microM32 {
		kernel32Block(aTile, tileM, k, r0, bTile, &acc)
		br := min(rows-r0, microM32)
		for i := 0; i < br; i++ {
			row := c[(r0+i)*ldc : (r0+i)*ldc+cols]
			sums := acc[i*TileN32 : i*TileN32+TileN32]
			for j := range row {
				row[j] += sums[j]
			}
		}
	}
}

// microKernel32Scalar is the portable row-at-a-time kernel: one row of
// the a-tile against the whole b-tile, the row's sixteen partial sums in
// scalar locals so the compiler keeps them in registers (an accumulator
// array would spill and pay a load+store per multiply-add).
func microKernel32Scalar(aTile []float32, tileM, k int, bTile []float32, c []float32, ldc, rows, cols int) {
	bt := bTile[:k*TileN32]
	for i := 0; i < rows; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		var t0, t1, t2, t3, t4, t5, t6, t7 float32
		ai := i
		for p := 0; p <= len(bt)-TileN32; p += TileN32 {
			av := aTile[ai]
			ai += tileM
			b16 := bt[p : p+TileN32 : p+TileN32]
			s0 += av * b16[0]
			s1 += av * b16[1]
			s2 += av * b16[2]
			s3 += av * b16[3]
			s4 += av * b16[4]
			s5 += av * b16[5]
			s6 += av * b16[6]
			s7 += av * b16[7]
			t0 += av * b16[8]
			t1 += av * b16[9]
			t2 += av * b16[10]
			t3 += av * b16[11]
			t4 += av * b16[12]
			t5 += av * b16[13]
			t6 += av * b16[14]
			t7 += av * b16[15]
		}
		row := c[i*ldc : i*ldc+cols]
		sums := [TileN32]float32{s0, s1, s2, s3, s4, s5, s6, s7, t0, t1, t2, t3, t4, t5, t6, t7}
		for j := range row {
			row[j] += sums[j]
		}
	}
}

// Gemm32 computes c += a·b over packed single-precision operands; c is
// M×N row-major with leading dimension ldc.
func Gemm32(a *A32, b *B32, c []float32, ldc int, workers int) {
	if a.K != b.K {
		panic("pack: Gemm32 dimension mismatch")
	}
	if ldc < b.N {
		panic("pack: Gemm32 ldc too small")
	}
	type job struct{ ta, tb int }
	jobs := make([]job, 0, a.Tiles()*b.Tiles())
	for ta := 0; ta < a.Tiles(); ta++ {
		for tb := 0; tb < b.Tiles(); tb++ {
			jobs = append(jobs, job{ta, tb})
		}
	}
	run := func(j job) {
		rows := a.TileRows(j.ta)
		cols := b.TileCols(j.tb)
		off := j.ta*a.TileM*ldc + j.tb*TileN32
		MicroKernel32(a.Tile(j.ta), a.TileM, a.K, b.Tile(j.tb), c[off:], ldc, rows, cols)
	}
	if workers <= 1 || len(jobs) < 2 {
		for _, j := range jobs {
			run(j)
		}
		return
	}
	next := make(chan job, len(jobs))
	for _, j := range jobs {
		next <- j
	}
	close(next)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				run(j)
			}
		}()
	}
	wg.Wait()
}
