// Command benchjson runs the repository's headline benchmarks — the
// packed-tile DGEMM fast path against the row-split reference, the
// dynamic DAG LU driver, and the real 2D distributed HPL under each
// look-ahead schedule — and writes a machine-readable BENCH_<date>.json
// (GFLOPS, ns/op, bytes/op, allocs/op per case). It seeds the repo's
// performance trajectory: CI runs it at smoke sizes and archives the JSON
// artifact, so regressions show up as a diffable number, not a feeling.
//
// The 2D HPL rows time the HPL phase only (factorization through
// back-substitution) and report each mode's best of -hpliters runs.
//
// Usage:
//
//	benchjson                        # default sizes, BENCH_<yyyymmdd>.json
//	benchjson -sizes 96,128 -lun 128 -hpln 192 -hplgrid 2x2 -o BENCH_ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"phihpl"
	"phihpl/internal/blas"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/pack"
	"phihpl/internal/perfmodel"
	"phihpl/internal/pool"
)

// caseResult is one benchmark row of the output file.
type caseResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NB          int     `json:"nb,omitempty"`
	P           int     `json:"p,omitempty"`
	Q           int     `json:"q,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	GFLOPS      float64 `json:"gflops"`
	// Verdict is the HPL residual verdict of the solve rows: "PASSED", or
	// "FALLBACK" on a mixed row whose every iteration abandoned the FP32
	// factors for FP64 (the residual still passed — a failing residual
	// aborts the record instead of reporting a number).
	Verdict string `json:"verdict,omitempty"`
	// SpeedupVsFP64 is set on the mixed rows: best fp64 time over best
	// mixed time for the same system (omitted on FALLBACK rows, where it
	// would compare the FP64 path against itself).
	SpeedupVsFP64 float64 `json:"speedup_vs_fp64,omitempty"`
	// RefineIters is the refinement step count of the best mixed solve.
	RefineIters int `json:"refine_iters,omitempty"`
	// FallbackReason is the typed reason of a FALLBACK row
	// ("fp32-singular" | "refinement-stalled" | "non-finite").
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// mixedBest accumulates the iterations of one mixed benchmark case,
// preferring runs that held the FP32 path: a single non-fallback
// iteration makes the row PASSED; only when every iteration fell back is
// the row emitted as FALLBACK with the typed reason — the record reports
// what happened rather than aborting.
type mixedBest struct {
	okSec, fbSec   float64
	okRep, fbRep   phihpl.RefineReport
	okSeen, fbSeen bool
}

func (m *mixedBest) add(sec float64, rep phihpl.RefineReport) {
	if rep.FellBack {
		if !m.fbSeen || sec < m.fbSec {
			m.fbSec, m.fbRep, m.fbSeen = sec, rep, true
		}
		return
	}
	if !m.okSeen || sec < m.okSec {
		m.okSec, m.okRep, m.okSeen = sec, rep, true
	}
}

// row renders the accumulated best as a benchmark row against the
// matching FP64 best time.
func (m *mixedBest) row(name string, n, nb, p, q int, flops, bestFP64 float64) (caseResult, error) {
	c := caseResult{Name: name, N: n, NB: nb, P: p, Q: q}
	switch {
	case m.okSeen:
		c.NsPerOp = m.okSec * 1e9
		c.GFLOPS = flops / c.NsPerOp
		c.Verdict = "PASSED"
		c.SpeedupVsFP64 = bestFP64 / m.okSec
		c.RefineIters = m.okRep.Iterations
	case m.fbSeen:
		c.NsPerOp = m.fbSec * 1e9
		c.GFLOPS = flops / c.NsPerOp
		c.Verdict = "FALLBACK"
		c.RefineIters = m.fbRep.Iterations
		c.FallbackReason = m.fbRep.Reason.String()
	default:
		return caseResult{}, fmt.Errorf("%s: no iterations recorded", name)
	}
	return c, nil
}

// benchFile is the BENCH_<date>.json schema. Kernel and Kernel32 name the
// micro-kernel rung ("avx512", "avx2" or "scalar") the unforced packed
// rows — DgemmPacked, DgemmPacked-asm and the LU/HPL rows built on them —
// dispatched to.
type benchFile struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Kernel     string       `json:"kernel"`
	Kernel32   string       `json:"kernel32"`
	Results    []caseResult `json:"results"`
}

// newBenchFile fills the header that identifies the run's host and
// micro-kernel rungs.
func newBenchFile(workers int) benchFile {
	return benchFile{
		Date:       time.Now().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Kernel:     pack.KernelName(),
		Kernel32:   pack.Kernel32Name(),
	}
}

func main() {
	var (
		sizes    = flag.String("sizes", "128,256,512", "comma-separated square DGEMM sizes")
		lun      = flag.Int("lun", 512, "LU problem size for the dynamic-DAG case (0 skips)")
		workers  = flag.Int("workers", 4, "worker count for the parallel paths")
		hpln     = flag.Int("hpln", 768, "2D distributed HPL problem size, run once per look-ahead mode (0 skips)")
		hplnb    = flag.Int("hplnb", 16, "2D distributed HPL block size")
		hplgrid  = flag.String("hplgrid", "2x2,4x4", "2D distributed HPL process grids, comma-separated PxQ")
		hpliters = flag.Int("hpliters", 8, "2D distributed HPL iterations per (grid, mode); best timed phase is reported")
		mxpn     = flag.Int("mxpn", 768, "mixed-precision comparison size: fp64 vs FP32+refinement on one system (0 skips)")
		mxpnb    = flag.Int("mxpnb", 64, "mixed-precision comparison block size")
		mxpiters = flag.Int("mxpiters", 5, "mixed-precision comparison iterations; modes interleave, best of each is reported")
		out      = flag.String("o", "", "output path (default BENCH_<yyyymmdd>.json)")
	)
	flag.Parse()

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().Format("20060102") + ".json"
	}

	file := newBenchFile(*workers)

	for _, f := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", f)
			os.Exit(2)
		}
		file.Results = append(file.Results,
			gemmCase("DgemmParallel", n, *workers, blas.DgemmParallel),
			gemmCase("DgemmPacked", n, *workers, blas.DgemmPacked),
			// The micro-kernel ladder: the same packed driver with the
			// scalar kernel forced, and — where the CPU has a vector
			// kernel (the header's "kernel" names the rung) — with the
			// vector kernel explicitly named, so the scalar→asm
			// rung is a diffable pair of rows rather than an inference
			// about what DgemmPacked dispatched to.
			gemmCaseScalar(n, *workers),
		)
		if pack.VectorKernel() {
			file.Results = append(file.Results,
				gemmCaseAsm(n, *workers),
				// The placement rung: per-socket B-panel replication under
				// a forced two-group pool, against the shared-B DgemmPacked
				// row above. On single-socket CI this prices the
				// replication overhead; on dual-socket metal it shows the
				// interconnect win.
				gemmCaseRepB(n, *workers),
			)
		}
	}

	if *lun > 0 {
		file.Results = append(file.Results, luCase(*lun, *workers))
	}

	if *hpln > 0 {
		for _, gs := range strings.Split(*hplgrid, ",") {
			p, q, err := parseGrid(gs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(2)
			}
			cs, err := hplCases(*hpln, *hplnb, p, q, *hpliters)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			file.Results = append(file.Results, cs...)
		}
	}

	if *mxpn > 0 {
		cs, err := mxpCases(*mxpn, *mxpnb, *workers, *mxpiters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		file.Results = append(file.Results, cs...)
	}

	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	for _, r := range file.Results {
		fmt.Printf("%-14s n=%-5d %12.0f ns/op %8.2f GFLOPS %6d B/op %4d allocs/op\n",
			r.Name, r.N, r.NsPerOp, r.GFLOPS, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Println("wrote", path)
}

// gemmDriver is the shared signature of DgemmParallel and DgemmPacked.
type gemmDriver func(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int)

// gemmCase benchmarks one n×n×n DGEMM through the given driver.
func gemmCase(name string, n, workers int, f gemmDriver) caseResult {
	a := matrix.RandomGeneral(n, n, 1)
	x := matrix.RandomGeneral(n, n, 2)
	c := matrix.NewDense(n, n)
	f(false, false, -1, a, x, 1, c, workers) // warm pools and pack buffers
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f(false, false, -1, a, x, 1, c, workers)
		}
	})
	flops := 2 * float64(n) * float64(n) * float64(n)
	return toCase(name, n, flops, r)
}

// gemmCaseScalar benchmarks DgemmPacked with the vector kernel disabled:
// the portable-scalar floor of the micro-kernel ladder, present on every
// platform (on noasm/non-amd64 builds it equals the DgemmPacked row). The
// prior setting is restored, so a run under PHIHPL_DISABLE_VECTOR_KERNEL
// stays scalar for the rows after it, as its header says.
func gemmCaseScalar(n, workers int) caseResult {
	prev := pack.DisableVectorKernel
	pack.DisableVectorKernel = true
	defer func() { pack.DisableVectorKernel = prev }()
	return gemmCase("DgemmPacked-scalar", n, workers, blas.DgemmPacked)
}

// gemmCaseAsm benchmarks DgemmPacked with the vector kernel forced on:
// the rung the header's "kernel" field names, AVX-512 or AVX2+FMA. It is
// the DgemmPacked row's dispatch, named so the scalar→asm speedup is a
// first-class pair in the archive. Only emitted when the CPU and build
// carry a vector kernel.
func gemmCaseAsm(n, workers int) caseResult {
	prev := pack.DisableVectorKernel
	pack.DisableVectorKernel = false
	defer func() { pack.DisableVectorKernel = prev }()
	return gemmCase("DgemmPacked-asm", n, workers, blas.DgemmPacked)
}

// gemmCaseRepB benchmarks DgemmPacked under a forced two-group pool, so
// the B panel is packed once per group and each worker streams its own
// replica (byte-identical results; see the replication tests).
func gemmCaseRepB(n, workers int) caseResult {
	pool.ForceGroups(2)
	defer pool.ForceGroups(0)
	return gemmCase("DgemmPacked-repB", n, workers, blas.DgemmPacked)
}

// luCase benchmarks the dynamic DAG factorization at order n (NB 64).
func luCase(n, workers int) caseResult {
	a := matrix.RandomGeneral(n, n, 3)
	piv := make([]int, n)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := a.Clone()
			b.StartTimer()
			if err := lu.Dynamic(w, piv, lu.Options{NB: 64, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
	return toCase("LuDynamic", n, perfmodel.LUFlops(n), r)
}

// parseGrid parses "PxQ" into its two factors.
func parseGrid(s string) (p, q int, err error) {
	parts := strings.SplitN(strings.ToLower(strings.TrimSpace(s)), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad grid %q (want PxQ)", s)
	}
	p, err1 := strconv.Atoi(parts[0])
	q, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || p < 1 || q < 1 {
		return 0, 0, fmt.Errorf("bad grid %q (want PxQ)", s)
	}
	return p, q, nil
}

// hplCases benchmarks the real 2D distributed solver at order n on a P×Q
// grid, once per (look-ahead schedule, precision) pair — the
// driver-level numbers the schedule and precision work are accountable
// to. It times the HPL phase only (SolveResult.Seconds: factorization
// through back-substitution, behind a barrier; refinement included for
// mixed), interleaves every case across iterations so machine noise hits
// them all alike, and reports each case's best iteration. The residual
// check runs on every iteration; a failing solve aborts the record
// rather than reporting a fast-but-wrong GFLOPS. A mixed solve that fell
// back to FP64 on every iteration is emitted as a FALLBACK row with its
// typed reason instead (see mixedBest).
func hplCases(n, nb, p, q, iters int) ([]caseResult, error) {
	modes := []phihpl.LookaheadMode{
		phihpl.LookaheadNone, phihpl.LookaheadBasic, phihpl.LookaheadPipelined,
	}
	best := make([]float64, len(modes))
	mixed := make([]mixedBest, len(modes))
	run := func(m phihpl.LookaheadMode) (float64, error) {
		res, err := phihpl.SolveDistributed2DMode(n, nb, p, q, 0x5eed, m)
		if err != nil {
			return 0, err
		}
		if !res.Passed {
			return 0, fmt.Errorf("hpl2d %s: residual %g failed", m, res.Residual)
		}
		return res.Seconds, nil
	}
	runMixed := func(mi int, m phihpl.LookaheadMode) error {
		res, err := phihpl.SolveDistributed2DPrecision(n, nb, p, q, 0x5eed, m, phihpl.PrecisionMixed)
		if err != nil {
			return err
		}
		if !res.Passed {
			return fmt.Errorf("hpl2d-mixed %s: residual %g failed", m, res.Residual)
		}
		if res.Refine == nil {
			return fmt.Errorf("hpl2d-mixed %s: no refinement report", m)
		}
		mixed[mi].add(res.Seconds, *res.Refine)
		return nil
	}
	for mi, m := range modes {
		if _, err := run(m); err != nil { // warmup (pools, page faults)
			return nil, err
		}
		if err := runMixed(mi, m); err != nil {
			return nil, err
		}
	}
	mixed = make([]mixedBest, len(modes)) // discard the warmup iteration
	for i := 0; i < iters; i++ {
		for mi, m := range modes {
			s, err := run(m)
			if err != nil {
				return nil, err
			}
			if best[mi] == 0 || s < best[mi] {
				best[mi] = s
			}
			if err := runMixed(mi, m); err != nil {
				return nil, err
			}
		}
	}
	flops := perfmodel.LUFlops(n)
	out := make([]caseResult, 0, 2*len(modes))
	for mi, m := range modes {
		ns := best[mi] * 1e9
		out = append(out, caseResult{
			Name: "Hpl2D-" + m.String(), N: n, NB: nb, P: p, Q: q,
			NsPerOp: ns, GFLOPS: flops / ns, Verdict: "PASSED",
		})
		row, err := mixed[mi].row("Hpl2D-mixed-"+m.String(), n, nb, p, q, flops, best[mi])
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// mxpCases benchmarks the HPL-MxP claim head to head: the classical FP64
// solve against the mixed solve (FP32 packed factorization + FP64
// iterative refinement) on the same random system. Like hplCases, the two
// modes interleave across iterations so machine noise hits both alike,
// and each mode's best iteration is reported. Every solve's residual is
// checked against the HPL bar; a mixed run that fell back to FP64 on
// every iteration is emitted as a FALLBACK row carrying the typed reason
// — the record reports what happened instead of aborting.
func mxpCases(n, nb, workers, iters int) ([]caseResult, error) {
	a, rhs := matrix.RandomSystem(n, 0x5eed)
	opts := lu.Options{NB: nb, Workers: workers}

	runFP64 := func() (float64, error) {
		t0 := time.Now()
		x, res, err := lu.Solve(a, rhs, opts, lu.Sequential)
		sec := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		if res >= matrix.ResidualThreshold {
			return 0, fmt.Errorf("mxp fp64: residual %g failed", res)
		}
		_ = x
		return sec, nil
	}
	runMixed := func(acc *mixedBest) error {
		t0 := time.Now()
		_, res, rep, err := lu.SolveMixed(a, rhs, opts)
		sec := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if res >= matrix.ResidualThreshold {
			return fmt.Errorf("mxp mixed: residual %g failed", res)
		}
		acc.add(sec, rep)
		return nil
	}

	// Warmup both paths (pools, pack buffers, page faults).
	if _, err := runFP64(); err != nil {
		return nil, err
	}
	if err := runMixed(new(mixedBest)); err != nil {
		return nil, err
	}
	var bestFP64 float64
	var mixed mixedBest
	for i := 0; i < iters; i++ {
		s, err := runFP64()
		if err != nil {
			return nil, err
		}
		if bestFP64 == 0 || s < bestFP64 {
			bestFP64 = s
		}
		if err := runMixed(&mixed); err != nil {
			return nil, err
		}
	}
	flops := perfmodel.LUFlops(n)
	nsF := bestFP64 * 1e9
	mixedRow, err := mixed.row("MxP-mixed", n, nb, 0, 0, flops, bestFP64)
	if err != nil {
		return nil, err
	}
	return []caseResult{
		{Name: "MxP-fp64", N: n, NB: nb, NsPerOp: nsF, GFLOPS: flops / nsF,
			Verdict: "PASSED"},
		mixedRow,
	}, nil
}

// toCase converts a testing.BenchmarkResult into the output row.
func toCase(name string, n int, flops float64, r testing.BenchmarkResult) caseResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return caseResult{
		Name:        name,
		N:           n,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		GFLOPS:      flops / ns, // flops per ns == GFLOPS
	}
}
