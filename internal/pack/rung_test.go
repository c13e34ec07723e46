package pack

import (
	"math"
	"testing"
)

// The AVX-512 rung must be the AVX2 rung bit for bit: both run each C
// element as the same zero-seeded ascending-p FMA chain and add it into C
// once, C as the first source operand. The tests below hold the dispatch
// (MicroKernel/MicroKernel32 on an AVX-512 host) to the AVX2 kernels,
// reached directly, over every partial tile shape and the k values either
// side of the packed crossover and the K-block, with NaN (of assorted
// payloads), ±Inf and signed zeros in every operand.

// rungKs are the depths the rung tables sweep: tiny, either side of the
// LU block size 64, and either side of the 384-wide K-block.
var rungKs = []int{1, 2, 63, 64, 65, 384, 385}

// splitmix is the fuzzers' value source: a splitmix64 stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a value in [-1, 1).
func (s *splitmix) unit() float64 { return float64(int64(s.next()>>11))/float64(1<<52) - 1 }

// special64 returns v or, one time in eight, a special value: a quiet or
// signalling NaN with a random payload and sign, ±Inf, or a signed zero.
func (s *splitmix) special64(v float64) float64 {
	r := s.next()
	if r%8 != 0 {
		return v
	}
	payload := (r >> 8) & (1<<51 - 1)
	sign := (r >> 7 & 1) << 63
	switch r >> 3 % 5 {
	case 0: // quiet NaN
		return math.Float64frombits(sign | 0x7ff8000000000000 | payload)
	case 1: // signalling NaN (payload nonzero)
		return math.Float64frombits(sign | 0x7ff0000000000000 | payload | 1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	}
	return math.Float64frombits(sign)
}

// special32 is special64 for float32.
func (s *splitmix) special32(v float32) float32 {
	r := s.next()
	if r%8 != 0 {
		return v
	}
	payload := uint32(r>>8) & (1<<22 - 1)
	sign := uint32(r>>7&1) << 31
	switch r >> 3 % 5 {
	case 0:
		return math.Float32frombits(sign | 0x7fc00000 | payload)
	case 1:
		return math.Float32frombits(sign | 0x7f800000 | payload | 1)
	case 2:
		return float32(math.Inf(1))
	case 3:
		return float32(math.Inf(-1))
	}
	return math.Float32frombits(sign)
}

// rungOperands64 builds a DefaultTileM×k a-tile, a k×TileN b-tile and a
// rows×ldc C (window values, sentinel padding columns), poisoned with
// special values when specials is set.
func rungOperands64(s *splitmix, k, rows, cols, ldc int, specials bool) (a, b, c []float64) {
	v := func() float64 {
		x := s.unit()
		if specials {
			x = s.special64(x)
		}
		return x
	}
	a = make([]float64, DefaultTileM*k)
	for i := range a {
		a[i] = v()
	}
	b = make([]float64, k*TileN)
	for i := range b {
		b[i] = v()
	}
	c = make([]float64, rows*ldc)
	for i := range c {
		if i%ldc >= cols {
			c[i] = sentinel64
		} else {
			c[i] = v()
		}
	}
	return a, b, c
}

// rungOperands32 is rungOperands64 for the FP32 tile geometry.
func rungOperands32(s *splitmix, k, rows, cols, ldc int, specials bool) (a, b, c []float32) {
	v := func() float32 {
		x := float32(s.unit())
		if specials {
			x = s.special32(x)
		}
		return x
	}
	a = make([]float32, DefaultTileM32*k)
	for i := range a {
		a[i] = v()
	}
	b = make([]float32, k*TileN32)
	for i := range b {
		b[i] = v()
	}
	c = make([]float32, rows*ldc)
	for i := range c {
		if i%ldc >= cols {
			c[i] = sentinel32
		} else {
			c[i] = v()
		}
	}
	return a, b, c
}

const (
	sentinel64 = math.MaxFloat64 / 3
	sentinel32 = math.MaxFloat32 / 3
)

// sameBits64 reports the first flat index where got and want differ in
// any bit, or -1.
func sameBits64(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// sameBits32 is sameBits64 for float32.
func sameBits32(got, want []float32) int {
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkRung64 runs the dispatcher and the AVX2 kernel on copies of c and
// fails unless they agree bit for bit; the caller has checked that the
// dispatcher is on the AVX-512 rung.
func checkRung64(t *testing.T, a, b, c []float64, k, ldc, rows, cols int) {
	t.Helper()
	got := append([]float64(nil), c...)
	MicroKernel(a, DefaultTileM, k, b, got, ldc, rows, cols)
	want := append([]float64(nil), c...)
	microKernelAVX2(a, DefaultTileM, k, b, want, ldc, rows, cols)
	if i := sameBits64(got, want); i >= 0 {
		t.Fatalf("rows=%d cols=%d k=%d ldc=%d: C(%d,%d) avx512 %#x, avx2 %#x", rows, cols, k, ldc,
			i/ldc, i%ldc, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// checkRung32 is checkRung64 for MicroKernel32.
func checkRung32(t *testing.T, a, b, c []float32, k, ldc, rows, cols int) {
	t.Helper()
	got := append([]float32(nil), c...)
	MicroKernel32(a, DefaultTileM32, k, b, got, ldc, rows, cols)
	want := append([]float32(nil), c...)
	microKernel32AVX2(a, DefaultTileM32, k, b, want, ldc, rows, cols)
	if i := sameBits32(got, want); i >= 0 {
		t.Fatalf("rows=%d cols=%d k=%d ldc=%d: C(%d,%d) avx512 %#x, avx2 %#x", rows, cols, k, ldc,
			i/ldc, i%ldc, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

func TestAVX512MatchesAVX2(t *testing.T) {
	if KernelName() != "avx512" {
		t.Skipf("FP64 dispatch is on the %s rung", KernelName())
	}
	s := splitmix(64)
	for _, k := range rungKs {
		for rows := 1; rows <= DefaultTileM; rows++ {
			for cols := 1; cols <= TileN; cols++ {
				ldc := cols + rows%3
				for _, specials := range []bool{false, true} {
					a, b, c := rungOperands64(&s, k, rows, cols, ldc, specials)
					checkRung64(t, a, b, c, k, ldc, rows, cols)
				}
			}
		}
	}
}

func TestAVX512MatchesAVX2FP32(t *testing.T) {
	if Kernel32Name() != "avx512" {
		t.Skipf("FP32 dispatch is on the %s rung", Kernel32Name())
	}
	s := splitmix(32)
	for _, k := range rungKs {
		for rows := 1; rows <= DefaultTileM32; rows++ {
			for cols := 1; cols <= TileN32; cols++ {
				ldc := cols + rows%3
				for _, specials := range []bool{false, true} {
					a, b, c := rungOperands32(&s, k, rows, cols, ldc, specials)
					checkRung32(t, a, b, c, k, ldc, rows, cols)
				}
			}
		}
	}
}

// TestKernelNames pins the rung names to the gates: the disable switches
// drop both precisions to "scalar", and otherwise the name follows the
// CPUID probes.
func TestKernelNames(t *testing.T) {
	want := rungName(vectorKernel, avx512Kernel)
	d64, d32 := DisableVectorKernel, DisableVectorKernel32
	defer func() { DisableVectorKernel, DisableVectorKernel32 = d64, d32 }()
	DisableVectorKernel, DisableVectorKernel32 = false, false
	if KernelName() != want || Kernel32Name() != want {
		t.Fatalf("KernelName %q Kernel32Name %q, want %q", KernelName(), Kernel32Name(), want)
	}
	DisableVectorKernel, DisableVectorKernel32 = true, true
	if KernelName() != "scalar" || Kernel32Name() != "scalar" {
		t.Fatalf("disabled: KernelName %q Kernel32Name %q, want scalar", KernelName(), Kernel32Name())
	}
	for _, tc := range []struct {
		vector, avx512 bool
		want           string
	}{{false, false, "scalar"}, {false, true, "scalar"}, {true, false, "avx2"}, {true, true, "avx512"}} {
		if got := rungName(tc.vector, tc.avx512); got != tc.want {
			t.Errorf("rungName(%v, %v) = %q, want %q", tc.vector, tc.avx512, got, tc.want)
		}
	}
}

// BenchmarkMicroKernelRungs times one L1-resident default tile per rung at
// the LU block depth k=64, in GFLOP/s:
//
//	go test ./internal/pack -run '^$' -bench MicroKernelRungs
func BenchmarkMicroKernelRungs(b *testing.B) {
	const k = 64
	s := splitmix(1)
	a64, b64, c64 := rungOperands64(&s, k, DefaultTileM, TileN, TileN, false)
	a32, b32, c32 := rungOperands32(&s, k, DefaultTileM32, TileN32, TileN32, false)
	run := func(name string, flops float64, ok bool, f func()) {
		b.Run(name, func(b *testing.B) {
			if !ok {
				b.Skip("rung unavailable on this CPU")
			}
			for i := 0; i < b.N; i++ {
				f()
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	f64 := 2.0 * DefaultTileM * TileN * k
	f32 := 2.0 * DefaultTileM32 * TileN32 * k
	run("fp64/avx512", f64, avx512Kernel, func() { microKernelAVX512(a64, DefaultTileM, k, b64, c64, TileN, DefaultTileM, TileN) })
	run("fp64/avx2", f64, vectorKernel, func() { microKernelAVX2(a64, DefaultTileM, k, b64, c64, TileN, DefaultTileM, TileN) })
	run("fp64/scalar", f64, true, func() { microKernelScalar(a64, DefaultTileM, k, b64, c64, TileN, DefaultTileM, TileN) })
	run("fp32/avx512", f32, avx512Kernel, func() { microKernel32AVX512(a32, DefaultTileM32, k, b32, c32, TileN32, DefaultTileM32, TileN32) })
	run("fp32/avx2", f32, vectorKernel, func() { microKernel32AVX2(a32, DefaultTileM32, k, b32, c32, TileN32, DefaultTileM32, TileN32) })
	run("fp32/scalar", f32, true, func() { microKernel32Scalar(a32, DefaultTileM32, k, b32, c32, TileN32, DefaultTileM32, TileN32) })
}
