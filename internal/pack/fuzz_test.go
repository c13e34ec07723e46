package pack

import (
	"math"
	"testing"
)

// FuzzMicroKernel drives the FP64 micro-kernel dispatcher with arbitrary
// tile shapes, depths and C strides and holds it to four invariants
// against the always-on scalar oracle (called directly — no global
// toggles, so the fuzzer exercises exactly the dispatch the production
// drivers use):
//
//  1. never panic, for any rows/cols/k/ldc combination the packed
//     drivers can legally produce;
//  2. element-wise agreement within the 8·(k+2)·ulp forward-error
//     envelope — the vector kernels fuse each multiply-add (VFMADD) while
//     the scalar oracle rounds the product first, so bit-equality is not
//     the contract across kernels, the envelope is;
//  3. no write outside the rows×cols window: C rows are padded to a
//     larger stride and the padding must survive bit-exactly;
//  4. on an AVX-512 host, dispatch ≡ the AVX2 kernel bit for bit, on the
//     fuzzed operands and on a copy poisoned with NaN (assorted payloads),
//     ±Inf and signed zeros.
//
// It also re-runs the dispatcher to confirm determinism (same inputs →
// bitwise same output), the property the worker-invariance suites build
// on. Run with `go test -fuzz=FuzzMicroKernel$` for a deep hunt; plain
// `go test` exercises the seed corpus plus testdata/fuzz regressions.
func FuzzMicroKernel(f *testing.F) {
	f.Add(uint64(1), uint8(29), uint8(7), uint8(15), uint8(3)) // full tile, padded ldc
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(0))   // 1×1×1 degenerate
	f.Add(uint64(3), uint8(5), uint8(7), uint8(95), uint8(1))  // deep k, 6 rows
	f.Add(uint64(4), uint8(28), uint8(3), uint8(40), uint8(0)) // partial cols, tight ldc
	f.Add(uint64(5), uint8(11), uint8(6), uint8(1), uint8(4))  // k = 1
	f.Fuzz(func(t *testing.T, seed uint64, rowsR, colsR, kR, padR uint8) {
		rows := 1 + int(rowsR)%DefaultTileM // 1..TileM
		cols := 1 + int(colsR)%TileN        // 1..TileN
		k := 1 + int(kR)%96
		ldc := cols + int(padR)%5
		tileM := DefaultTileM

		// splitmix64-driven values in [-1, 1): wide enough to shake out
		// indexing bugs, tame enough that overflow never muddies the
		// FMA-vs-separate-rounding comparison.
		s := splitmix(seed)
		aTile, bTile, c0 := rungOperands64(&s, k, rows, cols, ldc, false)

		got := append([]float64(nil), c0...)
		MicroKernel(aTile, tileM, k, bTile, got, ldc, rows, cols)
		want := append([]float64(nil), c0...)
		microKernelScalar(aTile, tileM, k, bTile, want, ldc, rows, cols)

		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mag := math.Abs(c0[i*ldc+j])
				for p := 0; p < k; p++ {
					mag += math.Abs(aTile[p*tileM+i] * bTile[p*TileN+j])
				}
				bound := 8 * float64(k+2) * (0x1p-52) * (mag + 1)
				d := math.Abs(got[i*ldc+j] - want[i*ldc+j])
				if d > bound || math.IsNaN(d) {
					t.Fatalf("C(%d,%d)=%v scalar %v (rows=%d cols=%d k=%d ldc=%d)",
						i, j, got[i*ldc+j], want[i*ldc+j], rows, cols, k, ldc)
				}
			}
			for j := cols; j < ldc; j++ {
				if got[i*ldc+j] != sentinel64 || want[i*ldc+j] != sentinel64 {
					t.Fatalf("write outside rows×cols window at (%d,%d)", i, j)
				}
			}
		}

		// Determinism: the dispatcher must be a pure function of its
		// inputs (same bits out every time), whichever kernel it picked.
		again := append([]float64(nil), c0...)
		MicroKernel(aTile, tileM, k, bTile, again, ldc, rows, cols)
		if i := sameBits64(got, again); i >= 0 {
			t.Fatalf("MicroKernel not deterministic at flat index %d", i)
		}

		// The AVX-512 rung is the AVX2 rung bit for bit. The AVX2 kernel
		// writes only the window, so equality also covers the padding.
		if KernelName() == "avx512" {
			checkRung64(t, aTile, bTile, c0, k, ldc, rows, cols)
			pa, pb, pc := rungOperands64(&s, k, rows, cols, ldc, true)
			checkRung64(t, pa, pb, pc, k, ldc, rows, cols)
		}
	})
}

// FuzzMicroKernel32 is FuzzMicroKernel for the FP32 dispatcher: no panic,
// the 8·(k+2)·ulp32 envelope against microKernel32Scalar, no write
// outside the rows×cols window under a padded ldc, determinism, and on an
// AVX-512 host dispatch ≡ the AVX2 kernel bit for bit, specials included.
// Rows span both 16-row blocks of the 32-row a-tile.
func FuzzMicroKernel32(f *testing.F) {
	f.Add(uint64(1), uint8(31), uint8(15), uint8(15), uint8(3)) // full tile, padded ldc
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(0))    // 1×1×1 degenerate
	f.Add(uint64(3), uint8(16), uint8(15), uint8(95), uint8(1)) // 17 rows: one into the second block
	f.Add(uint64(4), uint8(15), uint8(4), uint8(63), uint8(0))  // exactly one block, partial cols
	f.Add(uint64(5), uint8(22), uint8(9), uint8(1), uint8(4))   // k = 1
	f.Fuzz(func(t *testing.T, seed uint64, rowsR, colsR, kR, padR uint8) {
		rows := 1 + int(rowsR)%DefaultTileM32 // 1..TileM32
		cols := 1 + int(colsR)%TileN32        // 1..TileN32
		k := 1 + int(kR)%96
		ldc := cols + int(padR)%5
		tileM := DefaultTileM32

		s := splitmix(seed)
		aTile, bTile, c0 := rungOperands32(&s, k, rows, cols, ldc, false)

		got := append([]float32(nil), c0...)
		MicroKernel32(aTile, tileM, k, bTile, got, ldc, rows, cols)
		want := append([]float32(nil), c0...)
		microKernel32Scalar(aTile, tileM, k, bTile, want, ldc, rows, cols)

		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mag := math.Abs(float64(c0[i*ldc+j]))
				for p := 0; p < k; p++ {
					mag += math.Abs(float64(aTile[p*tileM+i]) * float64(bTile[p*TileN32+j]))
				}
				bound := 8 * float64(k+2) * (0x1p-23) * (mag + 1)
				d := math.Abs(float64(got[i*ldc+j]) - float64(want[i*ldc+j]))
				if d > bound || math.IsNaN(d) {
					t.Fatalf("C(%d,%d)=%v scalar %v (rows=%d cols=%d k=%d ldc=%d)",
						i, j, got[i*ldc+j], want[i*ldc+j], rows, cols, k, ldc)
				}
			}
			for j := cols; j < ldc; j++ {
				if got[i*ldc+j] != sentinel32 || want[i*ldc+j] != sentinel32 {
					t.Fatalf("write outside rows×cols window at (%d,%d)", i, j)
				}
			}
		}

		again := append([]float32(nil), c0...)
		MicroKernel32(aTile, tileM, k, bTile, again, ldc, rows, cols)
		if i := sameBits32(got, again); i >= 0 {
			t.Fatalf("MicroKernel32 not deterministic at flat index %d", i)
		}

		if Kernel32Name() == "avx512" {
			checkRung32(t, aTile, bTile, c0, k, ldc, rows, cols)
			pa, pb, pc := rungOperands32(&s, k, rows, cols, ldc, true)
			checkRung32(t, pa, pb, pc, k, ldc, rows, cols)
		}
	})
}
