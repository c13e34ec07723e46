package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"phihpl"
	"phihpl/internal/blas"
	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/trace"
)

// The shapes of the two solve workloads.
const (
	nativeN   = 2048
	gridN     = 1536
	hplNB     = 64
	gridP     = 2
	gridQ     = 2
	nSystems  = 4 // seeded systems a run cycles through, so every seed repeats
	setupReps = 5 // set-ups per run; setup_s is their median
)

// system is one seeded HPL input: A·x = b of order n.
type system struct {
	seed uint64
	a    *matrix.Dense
	b    []float64
}

// solveOut is what one solve call returned, with its timings.
type solveOut struct {
	x      []float64
	timed  float64 // the HPL timed phase, seconds
	wall   float64 // the whole call, seconds
	factor float64 // native FP64: the factorization alone (the DAG's wall)
	refine *lu.MixedReport
}

// hplCase is one of the two solve workloads: a problem size and the FP64
// and mixed solve calls, each timing its HPL phase.
type hplCase struct {
	name   string
	n      int
	stream int // seed stream of this workload
	fp64   func(ctx context.Context, s *system, workers int, rec *trace.Recorder) (solveOut, error)
	mixed  func(ctx context.Context, s *system, workers int, rec *trace.Recorder) (solveOut, error)
}

var nativeCase = hplCase{name: "native", n: nativeN, stream: 1, fp64: nativeFP64, mixed: nativeMixed}
var gridCase = hplCase{name: "grid", n: gridN, stream: 2, fp64: gridFP64, mixed: gridMixed}

// nativeFP64 factors a copy of A with the dynamic DAG scheduler and
// substitutes b. The timed phase is factorization plus substitution, as
// in HPL; copying A in is not timed.
func nativeFP64(ctx context.Context, s *system, workers int, rec *trace.Recorder) (solveOut, error) {
	t0 := time.Now()
	a := s.a.Clone()
	piv := make([]int, a.Rows)
	t1 := time.Now()
	if err := lu.DynamicCtx(ctx, a, piv, lu.Options{NB: hplNB, Workers: workers, Trace: rec}); err != nil {
		return solveOut{}, err
	}
	factor := time.Since(t1).Seconds()
	x := blas.LUSolve(a, piv, s.b)
	return solveOut{x: x, timed: time.Since(t1).Seconds(), wall: time.Since(t0).Seconds(), factor: factor}, nil
}

// nativeMixed runs the HPL-MxP solve: FP32 factorization, FP64
// refinement, FP64 fallback if needed. All of it is timed: the rate is
// the time to an x that passes at FP64 accuracy.
func nativeMixed(ctx context.Context, s *system, workers int, rec *trace.Recorder) (solveOut, error) {
	t0 := time.Now()
	x, _, rep, err := lu.SolveMixedCtx(ctx, s.a, s.b, lu.Options{NB: hplNB, Workers: workers, Trace: rec})
	if err != nil {
		return solveOut{}, err
	}
	secs := time.Since(t0).Seconds()
	return solveOut{x: x, timed: secs, wall: secs, refine: &rep}, nil
}

func gridFP64(ctx context.Context, s *system, _ int, rec *trace.Recorder) (solveOut, error) {
	return gridSolve(ctx, s, lu.PrecisionFP64, rec)
}

func gridMixed(ctx context.Context, s *system, _ int, rec *trace.Recorder) (solveOut, error) {
	return gridSolve(ctx, s, lu.PrecisionMixed, rec)
}

// gridSolve runs the 2D block-cyclic driver on a 2×2 grid with pipelined
// look-ahead. The driver generates its blocks from the seed and times its
// own HPL phase (through refinement for mixed); a mixed solve that fell
// back is charged its whole wall time, failed attempt included.
func gridSolve(ctx context.Context, s *system, prec lu.PrecisionMode, rec *trace.Recorder) (solveOut, error) {
	t0 := time.Now()
	r, err := hpl.SolveDistributed2DPrecisionCtx(ctx, gridN, hplNB, gridP, gridQ, s.seed, hpl.LookaheadPipelined, prec, rec)
	if err != nil {
		return solveOut{}, err
	}
	out := solveOut{x: r.X, timed: r.Seconds, wall: time.Since(t0).Seconds(), refine: r.Refine}
	if r.Refine != nil && r.Refine.FellBack {
		out.timed = out.wall
	}
	return out, nil
}

// solveChecker holds the first solution seen for every (seed, precision)
// and checks each later one against it and against the HPL residual bar.
type solveChecker struct {
	first map[string][]float64
}

func newSolveChecker() *solveChecker { return &solveChecker{first: map[string][]float64{}} }

// check verifies one solve of s: an x of the right length whose scaled
// residual, recomputed here from the seeded system, passes the HPL bar; a
// refine report on every mixed solve; and a bitwise-identical x for a
// repeated (seed, precision).
func (c *solveChecker) check(s *system, mixed bool, out solveOut) error {
	if len(out.x) != len(s.b) {
		return fmt.Errorf("seed %d: solution has %d entries, want %d", s.seed, len(out.x), len(s.b))
	}
	res := matrix.Residual(s.a, out.x, s.b)
	if math.IsNaN(res) || math.IsInf(res, 0) || res >= phihpl.ResidualThreshold {
		return fmt.Errorf("seed %d mixed=%v: scaled residual %g FAILED (bar %g)", s.seed, mixed, res, phihpl.ResidualThreshold)
	}
	if mixed && out.refine == nil {
		return fmt.Errorf("seed %d: mixed solve carries no refine report", s.seed)
	}
	if out.timed <= 0 {
		return fmt.Errorf("seed %d mixed=%v: no timed phase reported", s.seed, mixed)
	}
	key := fmt.Sprintf("%d/%v", s.seed, mixed)
	ref, ok := c.first[key]
	if !ok {
		c.first[key] = out.x
		return nil
	}
	for i := range ref {
		if math.Float64bits(ref[i]) != math.Float64bits(out.x[i]) {
			return fmt.Errorf("seed %d mixed=%v: x[%d] differs from the first solve of this seed (%v vs %v): not reproducible",
				s.seed, mixed, i, out.x[i], ref[i])
		}
	}
	return nil
}

// makeSystems generates the run's seeded inputs for workload c.
func makeSystems(c hplCase, seed uint64) []*system {
	out := make([]*system, nSystems)
	for i := range out {
		sd := deriveSeed(seed, c.stream, i)
		a, b := matrix.RandomSystem(c.n, sd)
		out[i] = &system{seed: sd, a: a, b: b}
	}
	return out
}

// hplSetup is the work before the first timed solve can start: input
// generation plus one untimed warm-up solve in each precision. It returns
// the seconds that work took; checking the warm-ups is not counted.
func hplSetup(ctx context.Context, c hplCase, seed uint64, workers int, chk *solveChecker) ([]*system, float64, error) {
	t0 := time.Now()
	sys := makeSystems(c, seed)
	secs := time.Since(t0).Seconds()
	for _, mixed := range []bool{false, true} {
		f := c.fp64
		if mixed {
			f = c.mixed
		}
		out, err := f(ctx, sys[0], workers, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("%s warm-up solve (mixed=%v): %w", c.name, mixed, err)
		}
		secs += out.wall
		if err := chk.check(sys[0], mixed, out); err != nil {
			return nil, 0, fmt.Errorf("%s warm-up solve: %w", c.name, err)
		}
	}
	return sys, secs, nil
}

// hplSample is what the solve loop measured.
type hplSample struct {
	gflops, mixedGflops []float64 // per solve, LUFlops(n) ÷ timed phase, in seconds the hypervisor left the VM
	wallGflops          []float64 // gflops with the timed phase in wall-clock seconds
	jobs                []float64 // per pair of solve calls on one system, seconds as for gflops
	calib               []float64 // host calibration, between solves
	ops, failed         int
	traced              []tracedSolve
}

// tracedSolve is one solve run with a span recorder attached.
type tracedSolve struct {
	mixed   bool
	out     solveOut
	spans   []trace.Span
	regions int64 // pool regions entered during the solve
	gflops  float64
}

// loopOpts tune hplLoop for the traced run.
type loopOpts struct {
	// traceEvery > 0 attaches a recorder to every traceEvery-th pair of
	// solves (the others run bare, for the tracing-overhead ratio).
	traceEvery int
	obs        *observer // layer registries toggled on for traced pairs
}

// hplLoop is the closed loop of one caller: it alternates FP64 and mixed
// solves over the seeded systems, checking every result, for at least d
// (whole pairs only, so both precisions see the same host drift).
func hplLoop(ctx context.Context, c hplCase, sys []*system, workers int, d time.Duration, chk *solveChecker, lo loopOpts) (hplSample, error) {
	var s hplSample
	flops := phihpl.LUFlops(c.n)
	start := time.Now()
	// At least one pair runs, and with tracing at least one traced pair.
	for pair := 0; pair < max(1, lo.traceEvery) || time.Since(start) < d; pair++ {
		job := 0.0
		// With tracing, a bare and a traced pair share each system.
		traced := lo.traceEvery > 0 && pair%lo.traceEvery == lo.traceEvery-1
		sy := sys[pair/max(1, lo.traceEvery)%len(sys)]
		for _, mixed := range []bool{false, true} {
			f := c.fp64
			if mixed {
				f = c.mixed
			}
			var rec *trace.Recorder
			var regions0 int64
			if traced {
				rec = &trace.Recorder{}
				lo.obs.attach()
				regions0 = lo.obs.regions()
			}
			s.ops++
			steal0, total0 := cpuTicks()
			out, err := f(ctx, sy, workers, rec)
			steal1, total1 := cpuTicks()
			if traced {
				lo.obs.detach()
			}
			if err == nil {
				err = chk.check(sy, mixed, out)
			}
			if err != nil {
				s.failed++
				return s, fmt.Errorf("%s solve %d: %w", c.name, s.ops, err)
			}
			// Times are restated in the seconds the hypervisor left the VM.
			avail := 1 - stolenShare(steal0, total0, steal1, total1)
			job += out.wall * avail
			g := flops / (out.timed * avail) / 1e9
			if traced {
				s.traced = append(s.traced, tracedSolve{mixed: mixed, out: out, spans: rec.Spans(),
					regions: lo.obs.regions() - regions0, gflops: g})
			} else if mixed {
				s.mixedGflops = append(s.mixedGflops, g)
			} else {
				s.gflops = append(s.gflops, g)
				s.wallGflops = append(s.wallGflops, flops/out.timed/1e9)
			}
			s.calib = append(s.calib, calibGFLOPS())
		}
		s.jobs = append(s.jobs, job)
	}
	return s, nil
}

// runHPL is the untraced native or grid workload. The run is setupReps
// rounds, each a set-up followed by its share of the solve loop, so the
// set-ups are spread through the run and host drift reaches setup_s as it
// reaches the solve rates.
func runHPL(ctx context.Context, c hplCase, o options) (*report, error) {
	rep := newReport()
	chk := newSolveChecker()
	var smp hplSample
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Free the previous round's inputs first, so every set-up starts
		// from the same heap and the peak RSS does not hinge on GC timing.
		runtime.GC()
		sys, secs, err := hplSetup(ctx, c, o.seed, o.workers, chk)
		rep.attempted += 2
		if err != nil {
			rep.failed++
			return rep, err
		}
		setups = append(setups, secs)
		s, err := hplLoop(ctx, c, sys, o.workers, o.duration()/setupReps, chk, loopOpts{})
		rep.attempted += s.ops
		rep.failed += s.failed
		if err != nil {
			return rep, err
		}
		smp.gflops = append(smp.gflops, s.gflops...)
		smp.wallGflops = append(smp.wallGflops, s.wallGflops...)
		smp.mixedGflops = append(smp.mixedGflops, s.mixedGflops...)
		smp.jobs = append(smp.jobs, s.jobs...)
		smp.calib = append(smp.calib, s.calib...)
		smp.ops += s.ops
	}
	sp := hostSpeed(smp.calib)
	rep.set("gflops", median(smp.gflops)/sp)
	rep.set("mixed_gflops", median(smp.mixedGflops)/sp)
	// A job of this closed loop is one system solved in both precisions;
	// its latency is the two solve calls' time.
	rep.set("jobs_per_s", 1/(median(smp.jobs)*sp))
	rep.set("job_latency_s_p50", quantile(smp.jobs, 0.5)*sp)
	rep.set("job_latency_s_p90", quantile(smp.jobs, 0.9)*sp)
	rep.set("setup_s", median(setups)*sp)
	rep.note("setup_s_reps", setups)
	rep.set("peak_rss_mib", peakRSSMiB())
	rep.note("wall_clock", map[string]float64{"gflops": median(smp.wallGflops), "setup_s": median(setups)})
	rep.note("solves", smp.ops)
	rep.note("jobs", len(smp.jobs))
	rep.note("latency_p90_tail_ok", tailOK(smp.jobs, 0.9))
	rep.noteCalib(smp.calib)
	return rep, nil
}
