//go:build !amd64 || noasm

package pack

// Non-amd64 platforms — and amd64 built with the `noasm` tag — always use
// the portable scalar kernels; the vector gates report unavailable and
// the block entry points are never reached.

func haveAsmKernel() bool { return false }

func haveAVX512Kernel() bool { return false }

// microKernelAVX512 is never called when haveAVX512Kernel reports false.
func microKernelAVX512(aTile []float64, tileM, k int, bTile []float64, c []float64, ldc, rows, cols int) {
	panic("pack: AVX-512 FP64 kernel unavailable on this platform")
}

// microKernel32AVX512 is never called when haveAVX512Kernel reports false.
func microKernel32AVX512(aTile []float32, tileM, k int, bTile []float32, c []float32, ldc, rows, cols int) {
	panic("pack: AVX-512 FP32 kernel unavailable on this platform")
}

// kernelBlock is never called when haveAsmKernel reports false.
func kernelBlock(aTile []float64, tileM, k, r0 int, bTile []float64, acc *[48]float64) {
	panic("pack: vector FP64 kernel unavailable on this platform")
}

// kernel32Block is never called when haveAsmKernel reports false.
func kernel32Block(aTile []float32, tileM, k, r0 int, bTile []float32, acc *[64]float32) {
	panic("pack: vector FP32 kernel unavailable on this platform")
}
