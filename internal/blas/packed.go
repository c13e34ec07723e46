package blas

import (
	"sync"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
	"phihpl/internal/pool"
)

// The packed-tile fast path of Section III: operands are packed once per
// K-block into the Knights Corner layout (A in TileM×k column-major tiles,
// B in k×8 row-major tiles) and multiplied by the register-blocked 30×8
// micro-kernel over an L2-sized K-blocked sequence of outer products. The
// tile grid and the packing itself are distributed over the persistent
// worker pool in internal/pool — no goroutines are created per call.
//
// Bitwise-reproducibility contract: the value of every C element depends
// only on its row of alpha·op(A), its column of op(B), beta·C and the
// K-block boundaries (a function of k alone) — never on the worker count,
// the tile the element lands in, or how the m×n iteration space is
// partitioned. The LU and HPL drivers split one mathematical trailing
// update into many differently-shaped DGEMM calls with the *same* k, so
// this property (plus the k-only crossover in RankKUpdate) is exactly
// what keeps sequential, look-ahead, DAG-scheduled and distributed
// factorizations bitwise identical to each other.

// packKC is the K-block depth: each outer product packs at most packKC
// columns of A and rows of B, sized so one a-tile strip (TileM×packKC)
// plus one b-tile (packKC×8) stay L2-resident. It mirrors the paper's
// k≈300–400 blocking (Table II peaks at k=300).
const packKC = 384

// PackedMinK is the crossover of RankKUpdate: trailing updates with
// k >= PackedMinK take the packed fast path, smaller ones the plain
// row-split loop whose lower setup cost wins for thin updates. The
// crossover deliberately depends on k only — m and n are partitioned
// differently by the sequential, per-panel and distributed drivers, and a
// shape-dependent path choice would break their bitwise-identity
// guarantees. Tests may override it (e.g. to force the reference path);
// it is not safe to change concurrently with running kernels.
var PackedMinK = 16

// DisableBReplication turns off the per-socket B-panel replication of
// DgemmPacked/SgemmPacked (the packed drivers then keep one shared packed
// B, the pre-topology behaviour). Replication only activates on machines
// where pool.Groups() > 1, so on single-socket hosts this flag is moot;
// it exists for benchmarks (measuring replication cost under
// pool.ForceGroups) and A/B tests. Like the kernel-mode toggles it is not
// safe to change concurrently with running kernels. Every replica holds
// identical bytes, so results are bitwise independent of this flag.
var DisableBReplication = false

// bGroups returns how many B-panel replicas the packed drivers keep: one
// per socket group, or one when replication is disabled.
func bGroups() int {
	if DisableBReplication {
		return 1
	}
	return pool.Groups()
}

// packBuf is a reusable set of packing buffers plus the packed-operand
// headers, recycled through a sync.Pool so steady-state DgemmPacked calls
// allocate nothing beyond two per-call closures: the headers live here
// precisely so the per-K-block loop re-points them instead of
// re-allocating them (the allocs-per-op growth with K-block count that
// the n=512 benchmark rows exposed).
type packBuf struct {
	a, b []float64
	pa   pack.A
	pbs  []pack.B // one header per B replica group
}

var packBufs = sync.Pool{New: func() any { return new(packBuf) }}

// take returns slices of exactly na and nb elements, growing the backing
// buffers only when a larger shape arrives. Contents are stale; the
// packers overwrite every element including padding.
func (pb *packBuf) take(na, nb int) ([]float64, []float64) {
	if cap(pb.a) < na {
		pb.a = make([]float64, na)
	}
	if cap(pb.b) < nb {
		pb.b = make([]float64, nb)
	}
	return pb.a[:na], pb.b[:nb]
}

// DgemmPacked computes C = alpha*op(A)*op(B) + beta*C through the
// packed-tile parallel fast path. It is numerically equivalent to Dgemm
// (element-wise within O(k)·ulp; the accumulation is grouped per K-block
// instead of folded straight into C) and considerably faster for shapes
// whose k is large enough to amortize the packing, which is the LU/HPL
// trailing-update regime. Dgemm/DgemmParallel remain the always-available
// reference oracle.
func DgemmPacked(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int) {
	m, k := opDims(a, transA)
	k2, n := opDims(b, transB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panic("blas: DgemmPacked dimension mismatch")
	}
	scaleRows(c, beta, workers)
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}

	aTiles := (m + pack.DefaultTileM - 1) / pack.DefaultTileM
	bTiles := (n + pack.TileN - 1) / pack.TileN
	groups := bGroups()
	pb := packBufs.Get().(*packBuf)
	defer packBufs.Put(pb)
	pa := &pb.pa
	if cap(pb.pbs) < groups {
		pb.pbs = make([]pack.B, groups)
	}
	pbs := pb.pbs[:groups]

	rec := obsTrace.Load()
	mPackedCalls.Load().Inc()
	mPackedFlops.Load().Add(2 * int64(m) * int64(n) * int64(k))

	// The per-K-block loop mutates k0/kb and re-points the packed-operand
	// headers; the two region closures are created once per call, outside
	// the loop, so the allocation count no longer scales with ceil(k/kC).
	var k0, kb int
	// Pack the A panel and every B replica in parallel: tiles are
	// independent, so the index spaces are fused into one work list
	// (aTiles items for A, then bTiles per replica group). Each replica
	// is packed from the same source by the same deterministic packer, so
	// all replicas hold identical bytes — the invariant that keeps the
	// grouped compute phase bitwise independent of the topology.
	packFn := func(t int) {
		if t < aTiles {
			pack.PackATileOp(pa, a, transA, alpha, k0, t)
		} else {
			t -= aTiles
			pack.PackBTileOp(&pbs[t/bTiles], b, transB, k0, t%bTiles)
		}
	}
	// Outer product: the (aTile, bTile) grid updates disjoint TileM×8
	// blocks of C, claimed by atomic work stealing over the pool. Each
	// worker streams the B replica of its own socket group.
	compFn := func(j, g int) {
		ta, tb := j/bTiles, j%bTiles
		rows := pa.TileRows(ta)
		if g >= len(pbs) {
			g = 0 // replication disabled under a multi-group pool: one shared B
		}
		pkb := &pbs[g]
		cols := pkb.TileCols(tb)
		off := ta*pack.DefaultTileM*c.Stride + tb*pack.TileN
		pack.MicroKernel(pa.Tile(ta), pa.TileM, kb, pkb.Tile(tb), c.Data[off:], c.Stride, rows, cols)
	}

	for k0 = 0; k0 < k; k0 += packKC {
		kb = packKC
		if k0+kb > k {
			kb = k - k0
		}
		nb := bTiles * kb * pack.TileN
		aData, bData := pb.take(aTiles*pack.DefaultTileM*kb, groups*nb)
		pa.M, pa.K, pa.TileM, pa.Data = m, kb, pack.DefaultTileM, aData
		for g := range pbs {
			pbs[g].K, pbs[g].N, pbs[g].Data = kb, n, bData[g*nb:(g+1)*nb]
		}
		mBytesPacked.Load().Add(8 * int64(len(aData)+len(bData)))

		var t0 float64
		if rec != nil {
			t0 = rec.Start()
		}
		pool.Do(aTiles+groups*bTiles, workers, packFn)
		if rec != nil {
			rec.Since(0, "pack", k0/packKC, t0)
			t0 = rec.Start()
		}
		pool.DoGrouped(aTiles*bTiles, workers, compFn)
		if rec != nil {
			rec.Since(0, "compute", k0/packKC, t0)
		}
	}
}

// --- prepacked operands ------------------------------------------------
//
// HPL's trailing update multiplies one L panel against every U block of
// a block row, and one U block against every L panel of a block column:
// per-call packing re-packs each operand O(blocks) times. Prepacking
// packs an operand once and reuses the tiles across calls. Because a C
// element's value depends only on its packed A row, packed B column and
// the K-block boundaries (see the contract above), GemmPrepacked is
// bitwise identical to the DgemmPacked call it replaces.

// prepackSlabs recycles the packed-operand backing arrays so steady-state
// prepacking allocates nothing: Release returns a slab once the packed
// operand is no longer referenced. Contents are stale on reuse; the
// packers overwrite every element including padding.
var prepackSlabs = sync.Pool{New: func() any { return new([]float64) }}

func prepackTake(n int) *[]float64 {
	s := prepackSlabs.Get().(*[]float64)
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return s
}

// PrepackedA is alpha·A packed once into the tile layout (one K-block).
type PrepackedA struct {
	pa   *pack.A
	m, k int
	slab *[]float64
}

// Release recycles the packed buffer. Optional (an unreleased operand is
// ordinary garbage); call it only once no GemmPrepacked will read the
// operand again.
func (a *PrepackedA) Release() {
	if a != nil && a.slab != nil {
		prepackSlabs.Put(a.slab)
		a.slab, a.pa = nil, nil
	}
}

// PrepackA packs alpha·a (no transpose). Returns nil when a spans more
// than one K-block (k > packKC) — callers fall back to DgemmPacked,
// which blocks over k itself.
func PrepackA(a *matrix.Dense, alpha float64) *PrepackedA {
	m, k := a.Rows, a.Cols
	if k > packKC {
		return nil
	}
	aTiles := (m + pack.DefaultTileM - 1) / pack.DefaultTileM
	slab := prepackTake(aTiles * pack.DefaultTileM * k)
	pa := &pack.A{M: m, K: k, TileM: pack.DefaultTileM, Data: *slab}
	for t := 0; t < aTiles; t++ {
		pack.PackATileOp(pa, a, false, alpha, 0, t)
	}
	mBytesPacked.Load().Add(8 * int64(len(pa.Data)))
	return &PrepackedA{pa: pa, m: m, k: k, slab: slab}
}

// PrepackedB is B packed once into the tile layout (one K-block), with
// one replica per socket group so the grouped compute phase streams a
// socket-local copy. Replicas are byte-for-byte copies of replica 0, so
// results are bitwise independent of the replica count.
type PrepackedB struct {
	pbs  []pack.B
	k, n int
	slab *[]float64
}

// Release recycles the packed buffer; see (*PrepackedA).Release.
func (b *PrepackedB) Release() {
	if b != nil && b.slab != nil {
		prepackSlabs.Put(b.slab)
		b.slab, b.pbs = nil, nil
	}
}

// PrepackB packs b (no transpose). Returns nil when b spans more than
// one K-block (k > packKC).
func PrepackB(b *matrix.Dense) *PrepackedB {
	k, n := b.Rows, b.Cols
	if k > packKC {
		return nil
	}
	groups := bGroups()
	bTiles := (n + pack.TileN - 1) / pack.TileN
	rep := bTiles * k * pack.TileN
	slab := prepackTake(groups * rep)
	pbs := make([]pack.B, groups)
	pbs[0] = pack.B{K: k, N: n, Data: (*slab)[:rep]}
	for t := 0; t < bTiles; t++ {
		pack.PackBTileOp(&pbs[0], b, false, 0, t)
	}
	for g := 1; g < groups; g++ {
		data := (*slab)[g*rep : (g+1)*rep]
		copy(data, pbs[0].Data)
		pbs[g] = pack.B{K: k, N: n, Data: data}
	}
	mBytesPacked.Load().Add(8 * int64(len(*slab)))
	return &PrepackedB{pbs: pbs, k: k, n: n, slab: slab}
}

// GemmPrepacked computes C += (alpha·A)·B from prepacked operands (the
// alpha was folded into the A tiles at pack time; beta is fixed at 1).
// The tile grid and micro-kernel invocations are exactly DgemmPacked's
// single-K-block schedule, so the result is bitwise identical to
// DgemmPacked(false, false, alpha, a, b, 1, c, workers).
func GemmPrepacked(a *PrepackedA, b *PrepackedB, c *matrix.Dense, workers int) {
	if a.k != b.k || c.Rows != a.m || c.Cols != b.n {
		panic("blas: GemmPrepacked dimension mismatch")
	}
	if a.m == 0 || b.n == 0 || a.k == 0 {
		return
	}
	mPackedCalls.Load().Inc()
	mPackedFlops.Load().Add(2 * int64(a.m) * int64(b.n) * int64(a.k))
	aTiles, bTiles := a.pa.Tiles(), b.pbs[0].Tiles()
	pa, pbs := a.pa, b.pbs
	pool.DoGrouped(aTiles*bTiles, workers, func(j, g int) {
		ta, tb := j/bTiles, j%bTiles
		rows := pa.TileRows(ta)
		if g >= len(pbs) {
			g = 0 // prepacked under a smaller group count than the caller's
		}
		pb := &pbs[g]
		cols := pb.TileCols(tb)
		off := ta*pack.DefaultTileM*c.Stride + tb*pack.TileN
		pack.MicroKernel(pa.Tile(ta), pa.TileM, a.k, pb.Tile(tb), c.Data[off:], c.Stride, rows, cols)
	})
}

// scaleRows applies C *= beta row-wise (beta==0 stores exact zeros,
// clearing any NaN/Inf previously in C, matching dgemmRows).
func scaleRows(c *matrix.Dense, beta float64, workers int) {
	if beta == 1 || c.Rows == 0 || c.Cols == 0 {
		return
	}
	pool.Do(c.Rows, workers, func(i int) {
		row := c.Row(i)
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			return
		}
		for j := range row {
			row[j] *= beta
		}
	})
}
