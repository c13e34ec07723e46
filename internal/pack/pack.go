// Package pack implements the Knights Corner-friendly matrix layout of
// Section III-A3 of the paper, with real data movement.
//
// Before an outer product C += Ai·Bi, the paper packs:
//
//   - Ai (M×k) into block row-major tiles of TileM×k, each tile stored
//     column-major (Figure 3a; TileM is 30 for Basic Kernel 2, 31 for
//     Basic Kernel 1). Column-major tiles give the micro-kernel contiguous
//     access to each column of a and simple prefetch address arithmetic.
//   - Bi (k×N) into tiles of k×TileN (TileN = 8, the vector width), each
//     tile stored row-major (Figure 3b), so an 8-element row of b is one
//     aligned vector load.
//
// Small tile leading dimensions avoid the TLB pressure and cache-
// associativity conflicts of large-leading-dimension source matrices.
// The packing cost is quadratic and is amortized by the cubic multiply;
// internal/perfmodel accounts its bandwidth cost for Figure 4.
package pack

import (
	"os"
	"sync"

	"phihpl/internal/matrix"
)

// DefaultTileM is the a-tile height of Basic Kernel 2 (30 rows blocked in
// registers, leaving one register for the broadcast of a and one for b).
const DefaultTileM = 30

// KernelOneTileM is the a-tile height of Basic Kernel 1 (31 rows, all but
// one register).
const KernelOneTileM = 31

// TileN is the b-tile width: 8 doubles, one 512-bit vector register.
const TileN = 8

// MicroM is the row height of the AVX2 FP64 register block: a 6×8
// accumulator block is 12 YMM registers (two 4-lane halves per row),
// leaving two for the b row and two for broadcasts of a. DefaultTileM is
// a multiple of MicroM (30 = 5·6), so the vector kernel walks a
// full-height a-tile without ever straddling the tile boundary; padding
// rows of a partial bottom tile are zero and are simply not written back.
// The AVX-512 rung blocks the whole DefaultTileM×TileN tile at once.
const MicroM = 6

// DisableVectorKernel forces the portable scalar FP64 micro-kernel even
// when a vector kernel (AVX-512 or AVX2+FMA) is available. The scalar
// kernel is the arithmetic reference (unfused multiply-add in the same
// ascending-p order); tests set this to pin the cross-kernel oracle, and
// the benchmark harness toggles it for the scalar-vs-vector head-to-head.
// It is not safe to change concurrently with running kernels.
var DisableVectorKernel = false

// vectorKernel and avx512Kernel record the one-time CPUID probes for the
// AVX2+FMA and AVX-512 rungs; the AVX-512 rung implies the AVX2 one.
var (
	vectorKernel = haveAsmKernel()
	avx512Kernel = haveAVX512Kernel()
)

// VectorKernel reports whether a fused vector FP64 kernel is available
// on this CPU (and OS). When false, MicroKernel always runs the scalar
// fallback.
func VectorKernel() bool { return vectorKernel }

// KernelName names the FP64 micro-kernel rung MicroKernel runs for the
// default tile geometry under the current settings: "avx512", "avx2" or
// "scalar".
func KernelName() string {
	return rungName(vectorKernel && !DisableVectorKernel, avx512Kernel)
}

// rungName maps a precision's gate state onto its rung name.
func rungName(vector, avx512 bool) string {
	switch {
	case !vector:
		return "scalar"
	case avx512:
		return "avx512"
	}
	return "avx2"
}

// The scalar oracle path must stay exercisable without recompiling:
// setting PHIHPL_DISABLE_VECTOR_KERNEL (to any non-empty value) disables
// both vector kernels at startup, which is how the CI scalar-oracle leg
// runs the full blas/pack/lu race suites on the pure-Go arithmetic.
func init() {
	if os.Getenv("PHIHPL_DISABLE_VECTOR_KERNEL") != "" {
		DisableVectorKernel = true
		DisableVectorKernel32 = true
	}
}

// A is matrix Ai packed into TileM×K column-major tiles. Partial bottom
// tiles are zero-padded to full height so that tile addressing is uniform.
type A struct {
	M, K  int
	TileM int
	Data  []float64 // len = Tiles()*TileM*K
}

// Tiles returns the number of row tiles.
func (p *A) Tiles() int { return (p.M + p.TileM - 1) / p.TileM }

// Tile returns the backing slice of tile t (TileM*K values, column-major:
// element (i,p) at [p*TileM+i]).
func (p *A) Tile(t int) []float64 {
	sz := p.TileM * p.K
	return p.Data[t*sz : (t+1)*sz]
}

// TileRows returns how many rows of tile t are real (unpadded).
func (p *A) TileRows(t int) int {
	r := p.M - t*p.TileM
	if r > p.TileM {
		r = p.TileM
	}
	return r
}

// PackA packs the M×K matrix a into TileM-row column-major tiles.
func PackA(a *matrix.Dense, tileM int) *A {
	if tileM < 1 {
		tileM = DefaultTileM
	}
	p := &A{M: a.Rows, K: a.Cols, TileM: tileM}
	p.Data = make([]float64, p.Tiles()*tileM*a.Cols)
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		rows := p.TileRows(t)
		base := t * tileM
		for i := 0; i < rows; i++ {
			src := a.Row(base + i)
			for k, v := range src {
				tile[k*tileM+i] = v
			}
		}
	}
	return p
}

// Unpack writes the packed contents back into dst (M×K), dropping padding.
func (p *A) Unpack(dst *matrix.Dense) {
	if dst.Rows != p.M || dst.Cols != p.K {
		panic("pack: A.Unpack dimension mismatch")
	}
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		rows := p.TileRows(t)
		base := t * p.TileM
		for i := 0; i < rows; i++ {
			row := dst.Row(base + i)
			for k := range row {
				row[k] = tile[k*p.TileM+i]
			}
		}
	}
}

// B is matrix Bi packed into K×TileN row-major tiles. Partial right tiles
// are zero-padded to full width.
type B struct {
	K, N int
	Data []float64 // len = Tiles()*K*TileN
}

// Tiles returns the number of column tiles.
func (p *B) Tiles() int { return (p.N + TileN - 1) / TileN }

// Tile returns the backing slice of tile t (K*TileN values, row-major:
// element (k,j) at [k*TileN+j]).
func (p *B) Tile(t int) []float64 {
	sz := p.K * TileN
	return p.Data[t*sz : (t+1)*sz]
}

// TileCols returns how many columns of tile t are real.
func (p *B) TileCols(t int) int {
	c := p.N - t*TileN
	if c > TileN {
		c = TileN
	}
	return c
}

// PackB packs the K×N matrix b into 8-column row-major tiles.
func PackB(b *matrix.Dense) *B {
	p := &B{K: b.Rows, N: b.Cols}
	p.Data = make([]float64, p.Tiles()*b.Rows*TileN)
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		cols := p.TileCols(t)
		base := t * TileN
		for k := 0; k < b.Rows; k++ {
			src := b.Row(k)[base : base+cols]
			dst := tile[k*TileN : k*TileN+cols]
			copy(dst, src)
		}
	}
	return p
}

// Unpack writes the packed contents back into dst (K×N).
func (p *B) Unpack(dst *matrix.Dense) {
	if dst.Rows != p.K || dst.Cols != p.N {
		panic("pack: B.Unpack dimension mismatch")
	}
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		cols := p.TileCols(t)
		base := t * TileN
		for k := 0; k < p.K; k++ {
			copy(dst.Row(k)[base:base+cols], tile[k*TileN:k*TileN+cols])
		}
	}
}

// MicroKernel computes the rows×cols corner of c += a-tile × b-tile,
// mirroring the register blocking of the basic kernels: for each p in
// [0,K), broadcast column p of a (contiguous in the column-major tile) and
// multiply by the 8-wide row p of b (contiguous in the row-major tile).
// c is row-major with leading dimension ldc, starting at the tile's
// top-left element.
//
// Every product is performed unconditionally — zero entries of a are not
// skipped — so NaN and Inf values in b propagate into c exactly as IEEE
// multiplication demands (0·NaN = NaN), keeping the packed path
// element-wise consistent with the reference triple loop on special
// values. For a fixed k the accumulation order of each element is
// independent of the tile's position, the matrix partitioning and the
// worker count, which is what lets every LU driver in this repository
// stay bitwise reproducible on top of this kernel.
//
// Two kinds of kernel sit behind this entry point:
//
//   - The vector kernels (amd64, see kernel_amd64.go), each element
//     accumulated in ascending p with fused multiply-add — the register
//     blocking of the paper's Basic Kernel 2, which needs real vector FMA
//     to approach machine peak. With AVX-512F the whole 30×8 tile is one
//     register block (30 ZMM accumulators) and the add into c is done in
//     assembly under a column mask; with AVX2+FMA the tile is walked as
//     5 blocks of 6×8. The two rungs run the same per-element FMA chain
//     and the same add into c, so they are bitwise equal.
//   - The portable scalar kernel: row-at-a-time with 8 scalar
//     accumulators, unfused multiply-add in the same ascending-p order.
//     This path is bit-for-bit the arithmetic of the K-block-grouped
//     reference loop and serves as its oracle.
//
// All paths perform every product unconditionally, accumulate each
// element in ascending p, and add the block sum into c exactly once — so
// for a fixed k the accumulation order of each element is independent of
// the tile's position, the matrix partitioning and the worker count,
// which is what lets every LU driver in this repository stay bitwise
// reproducible on top of this kernel. The vector and scalar paths differ
// only in product rounding (fused vs. separate), so results are
// deterministic on a given machine and element-wise within O(k)·ulp of
// each other across machines. The dispatch inspects only machine-global
// state (the CPUID probes, DisableVectorKernel) and the tile geometry —
// never the operand shape — so one process never mixes kernels across
// the differently-partitioned calls of a single mathematical update.
func MicroKernel(aTile []float64, tileM, k int, bTile []float64, c []float64, ldc, rows, cols int) {
	if k <= 0 || rows <= 0 || cols <= 0 {
		return
	}
	switch {
	case DisableVectorKernel:
	case avx512Kernel && tileM%DefaultTileM == 0:
		microKernelAVX512(aTile, tileM, k, bTile, c, ldc, rows, cols)
		return
	case vectorKernel && tileM%MicroM == 0:
		microKernelAVX2(aTile, tileM, k, bTile, c, ldc, rows, cols)
		return
	}
	microKernelScalar(aTile, tileM, k, bTile, c, ldc, rows, cols)
}

// microKernelAVX2 is MicroKernel on the AVX2 rung: 6×8 assembly blocks
// staged through acc, added into c in Go. Caller guarantees tileM is a
// multiple of MicroM. Tests call it directly to hold the AVX-512 rung to
// it bit for bit.
func microKernelAVX2(aTile []float64, tileM, k int, bTile []float64, c []float64, ldc, rows, cols int) {
	var acc [MicroM * TileN]float64
	for r0 := 0; r0 < rows; r0 += MicroM {
		kernelBlock(aTile, tileM, k, r0, bTile, &acc)
		br := min(rows-r0, MicroM)
		for i := 0; i < br; i++ {
			row := c[(r0+i)*ldc : (r0+i)*ldc+cols]
			sums := acc[i*TileN : i*TileN+TileN]
			for j := range row {
				row[j] += sums[j]
			}
		}
	}
}

// microKernelScalar is the portable row-at-a-time kernel: one row of the
// a-tile against the whole b-tile, with the row's eight partial sums held
// in scalar locals so the compiler keeps them in registers (a 30×8
// accumulator array would spill to the stack and pay a load+store per
// multiply-add). Per element the arithmetic is unchanged — ascending-p
// summation, then a single add into c — so reordering the i/p loops does
// not move a single bit.
func microKernelScalar(aTile []float64, tileM, k int, bTile []float64, c []float64, ldc, rows, cols int) {
	bt := bTile[:k*TileN]
	for i := 0; i < rows; i++ {
		// s0..s7 mirror one row of the v0..v29 accumulator registers.
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		ai := i
		for p := 0; p <= len(bt)-TileN; p += TileN {
			av := aTile[ai]
			ai += tileM
			b8 := bt[p : p+TileN : p+TileN]
			s0 += av * b8[0]
			s1 += av * b8[1]
			s2 += av * b8[2]
			s3 += av * b8[3]
			s4 += av * b8[4]
			s5 += av * b8[5]
			s6 += av * b8[6]
			s7 += av * b8[7]
		}
		// The "update c" epilogue whose cost is amortized by large k.
		row := c[i*ldc : i*ldc+cols]
		sums := [TileN]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		for j := range row {
			row[j] += sums[j]
		}
	}
}

// Gemm computes c += a·b from packed operands using the micro-kernel, with
// the (aTile, bTile) grid distributed across workers. It is the functional
// model of the paper's native DGEMM: packing plus a grid of TileM×8
// register-blocked outer products.
func Gemm(a *A, b *B, c *matrix.Dense, workers int) {
	if a.K != b.K || c.Rows != a.M || c.Cols != b.N {
		panic("pack: Gemm dimension mismatch")
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
		off := j.ta*a.TileM*c.Stride + j.tb*TileN
		MicroKernel(a.Tile(j.ta), a.TileM, a.K, b.Tile(j.tb), c.Data[off:], c.Stride, rows, cols)
	}
	if workers <= 1 || len(jobs) < 2 {
		for _, j := range jobs {
			run(j)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan job, len(jobs))
	for _, j := range jobs {
		next <- j
	}
	close(next)
	if workers > len(jobs) {
		workers = len(jobs)
	}
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

// PackATileOp packs tile t of the K-block [k0, k0+p.K) of op(src), scaled
// by alpha, into p.Data. op(src) is src when trans is false and srcᵀ
// otherwise; p carries the destination geometry (M, K = block depth,
// TileM) and must have Data preallocated to Tiles()*TileM*K. Padding rows
// of a partial bottom tile are explicitly zeroed, so p.Data may be a
// recycled buffer with stale contents.
//
// Tiles are independent, which is what lets the BLAS layer pack them in
// parallel; folding alpha into the packed panel here makes the micro-
// kernel's per-element arithmetic (alpha·a)·b identical to the reference
// loop's.
func PackATileOp(p *A, src *matrix.Dense, trans bool, alpha float64, k0, t int) {
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

// PackBTileOp packs tile t of the K-block [k0, k0+p.K) of op(src) into
// p.Data; op(src) is src when trans is false and srcᵀ otherwise. Padding
// columns of a partial right tile are explicitly zeroed, so p.Data may be
// a recycled buffer. Tiles are independent and safe to pack in parallel.
func PackBTileOp(p *B, src *matrix.Dense, trans bool, k0, t int) {
	tile := p.Tile(t)
	cols := p.TileCols(t)
	base := t * TileN
	if cols < TileN {
		for kk := 0; kk < p.K; kk++ {
			pad := tile[kk*TileN+cols : (kk+1)*TileN]
			for j := range pad {
				pad[j] = 0
			}
		}
	}
	if !trans {
		for kk := 0; kk < p.K; kk++ {
			copy(tile[kk*TileN:kk*TileN+cols], src.Row(k0 + kk)[base:base+cols])
		}
		return
	}
	// op(src)(kk, j) = src(base+j, k0+kk): row base+j of src holds the
	// tile's column j contiguously over kk.
	for j := 0; j < cols; j++ {
		srcRow := src.Row(base + j)[k0 : k0+p.K]
		for kk, v := range srcRow {
			tile[kk*TileN+j] = v
		}
	}
}

// PackedBytes returns the number of bytes moved to pack an M×K A-block and
// a K×N B-block (read source + write packed buffer), used by the packing
// overhead model.
func PackedBytes(m, n, k int) float64 {
	return 2 * 8 * float64(m*k+k*n)
}
