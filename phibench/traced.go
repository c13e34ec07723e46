package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"phihpl/internal/metrics"
	"phihpl/internal/trace"
)

// Phase names of the span sets the drivers emit.
var (
	luPhases  = map[string]bool{"PanelFact": true, "Update": true}
	hplPhases = []string{"panel", "swap", "Lbcast", "Ubcast", "GEMM"}
)

// runTraced is the traced run. It runs all three workloads with recorders
// and layer registries attached — the named workload for the largest
// share of the time — then the layer probes at that workload's shapes,
// and prints every per-layer metric. Traced and bare operations alternate
// within each phase, so the tracing overhead is a ratio of neighbours.
// The named workload's spans are written as a Chrome trace.
func runTraced(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	obs := &observer{reg: metrics.NewRegistry()}
	share := func(w string) time.Duration {
		if w == o.workload {
			return o.duration() * 2 / 5
		}
		return o.duration() / 5
	}
	var calib []float64

	// Native: lu/dag spans.
	nat, natRate, err := tracedHPL(ctx, nativeCase, o, share("native"), obs, rep)
	if err != nil {
		return rep, err
	}
	calib = append(calib, nat.calib...)
	var panel, update, idle, sfactor, refine, iters []float64
	for _, t := range nat.traced {
		if t.mixed {
			lt := aggregate(t.spans, nil)
			sfactor = append(sfactor, lt.Phase["SFactor"])
			refine = append(refine, lt.Phase["Refine"])
			iters = append(iters, float64(t.out.refine.Iterations))
			continue
		}
		lt := aggregate(t.spans, luPhases)
		panel = append(panel, lt.Phase["PanelFact"])
		update = append(update, lt.Phase["Update"])
		idle = append(idle, idleFrac(lt.Busy, o.workers, t.out.factor))
	}
	rep.set("lu.panel_s", median(panel))
	rep.set("lu.update_s", median(update))
	rep.set("lu.idle_frac", median(idle))
	rep.set("lu.sfactor_s", median(sfactor))
	rep.set("lu.refine_s", median(refine))
	rep.set("lu.refine_iters", median(iters))

	// Grid: hpl and cluster spans.
	grd, gridRate, err := tracedHPL(ctx, gridCase, o, share("grid"), obs, rep)
	if err != nil {
		return rep, err
	}
	calib = append(calib, grd.calib...)
	keep := map[string]bool{}
	for _, p := range hplPhases {
		keep[p] = true
	}
	phase := map[string][]float64{}
	var hidle, untimed []float64
	for _, t := range grd.traced {
		lt := aggregate(t.spans, keep)
		prefix := "hpl."
		if t.mixed {
			prefix = "hpl.mixed."
		} else {
			hidle = append(hidle, idleFrac(lt.Busy, lt.Lanes, t.out.timed))
			untimed = append(untimed, t.out.wall-t.out.timed)
		}
		for _, p := range hplPhases {
			phase[prefix+p] = append(phase[prefix+p], lt.Phase[p])
		}
	}
	for _, prefix := range []string{"hpl.", "hpl.mixed."} {
		for _, p := range hplPhases {
			rep.set(prefix+strings.ToLower(p)+"_s", median(phase[prefix+p]))
		}
	}
	rep.set("hpl.idle_frac", median(hidle))
	rep.set("hpl.untimed_s", median(untimed))

	// Server: server and journal registries.
	srv, err := tracedServer(ctx, o, share("server"), obs, rep)
	if err != nil {
		return rep, err
	}
	calib = append(calib, srv.calib...)

	// Per-solve regions and the overhead ratio come from the named workload.
	var overhead, regions, rate float64
	switch o.workload {
	case "native":
		overhead, regions, rate = nat.overhead(), nat.regionsPerSolve(), natRate
	case "grid":
		overhead, regions, rate = grd.overhead(), grd.regionsPerSolve(), gridRate
	default:
		overhead, regions, rate = srv.overhead, srv.regionsPerJob, median(srv.gflops)
	}
	rep.set("env.trace_overhead_frac", overhead)
	rep.set("pool.regions_per_solve", regions)

	// Counters accumulated over every traced operation of the run.
	rep.set("lu.fallbacks", float64(obs.counter("lu.mixed_fallbacks")))
	rep.set("cluster.resends", float64(obs.counter("cluster.resends")))
	rep.set("blas.flops_per_packed_byte", float64(obs.counter("blas.packed_flops"))/float64(obs.counter("blas.bytes_packed")))

	if err := layerProbes(rep, shapesFor(o.workload), o.workers, o.tmp); err != nil {
		rep.failed++
		return rep, err
	}
	rep.set("blas.frac_of_peak", rate/rep.metrics["blas.dgemm_gflops"].Value)
	calib = append(calib, calibGFLOPS())
	rep.set("env.calib_gflops", median(calib))
	rep.noteCalib(calib)
	return rep, nil
}

// overhead is 1 − traced ÷ bare median FP64 rate.
func (s hplSample) overhead() float64 {
	var traced []float64
	for _, t := range s.traced {
		if !t.mixed {
			traced = append(traced, t.gflops)
		}
	}
	return 1 - median(traced)/median(s.gflops)
}

// regionsPerSolve is the median count of pool regions a traced FP64 solve
// entered.
func (s hplSample) regionsPerSolve() float64 {
	var r []float64
	for _, t := range s.traced {
		if !t.mixed {
			r = append(r, float64(t.regions))
		}
	}
	return median(r)
}

// tracedHPL runs one set-up and then the solve loop for d with every
// second pair of solves traced. When c is the named workload its first
// traced pair is written as a Chrome trace. It returns the sample and the
// bare median FP64 rate.
func tracedHPL(ctx context.Context, c hplCase, o options, d time.Duration, obs *observer, rep *report) (hplSample, float64, error) {
	chk := newSolveChecker()
	sys, _, err := hplSetup(ctx, c, o.seed, o.workers, chk)
	rep.attempted += 2
	if err != nil {
		rep.failed++
		return hplSample{}, 0, err
	}
	smp, err := hplLoop(ctx, c, sys, o.workers, d, chk, loopOpts{traceEvery: 2, obs: obs})
	rep.attempted += smp.ops
	rep.failed += smp.failed
	if err != nil {
		return smp, 0, err
	}
	if c.name == o.workload && len(smp.traced) >= 2 {
		// Lay the pair end to end on one timeline.
		rec := &trace.Recorder{}
		off := 0.0
		for _, t := range smp.traced[:2] {
			end := 0.0
			for _, s := range t.spans {
				rec.Add(s.Worker, s.Name, s.Iter, off+s.Start, off+s.End)
				end = max(end, s.End)
			}
			off += end
		}
		if err := writeChrome(rec, o); err != nil {
			return smp, 0, err
		}
	}
	return smp, median(smp.gflops), nil
}

// writeChrome writes rec as the run's Chrome trace.
func writeChrome(rec *trace.Recorder, o options) error {
	path := filepath.Join(o.out, "trace_"+o.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "phibench: Chrome trace written to", path)
	return nil
}

// serverTraced is what the traced server phase measured.
type serverTraced struct {
	serverSample
	overhead      float64
	regionsPerJob float64
}

// tracedServer runs the server workload with the layer registries
// attached in alternate half-second windows and a job-attempt recorder.
func tracedServer(ctx context.Context, o options, d time.Duration, obs *observer, rep *report) (serverTraced, error) {
	var out serverTraced
	e, err := newServerEnv(o.tmp, o.workers)
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(e.dir)
	reg, rec := metrics.NewRegistry(), &trace.Recorder{}
	h, _, replay, st, prefilled, err := serverSetup(ctx, e, o.seed, reg, rec)
	rep.attempted += prefilled
	if err != nil {
		rep.failed++
		return out, err
	}
	before := reg.Snapshot()

	const window = 500 * time.Millisecond
	stop, toggled := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var regions int64
	go func() {
		defer close(toggled)
		t := time.NewTicker(window)
		defer t.Stop()
		on := false
		var r0 int64
		for {
			select {
			case <-stop:
				if on {
					obs.detach()
					mu.Lock()
					regions += obs.regions() - r0
					mu.Unlock()
				}
				return
			case <-t.C:
				if on = !on; on {
					r0 = obs.regions()
					obs.attach()
				} else {
					obs.detach()
					mu.Lock()
					regions += obs.regions() - r0
					mu.Unlock()
				}
			}
		}
	}()
	out.serverSample = e.load(ctx, h.url, o.workers, o.seed, d)
	close(stop)
	<-toggled
	if err := h.stop(); err != nil && out.firstErr == nil {
		out.firstErr = err
	}
	rep.attempted += out.jobs
	rep.failed += out.failed
	if out.firstErr != nil {
		return out, out.firstErr
	}
	if o.workload == "server" {
		if err := writeChrome(rec, o); err != nil {
			return out, err
		}
	}

	// Windows alternate bare (even) and traced (odd), starting bare.
	var bare, traced float64
	for _, at := range out.passedAt {
		if int(at/window.Seconds())%2 == 1 {
			traced++
		} else {
			bare++
		}
	}
	out.overhead = 1 - traced/bare
	if traced > 0 {
		out.regionsPerJob = float64(regions) / traced
	}

	after := reg.Snapshot()
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	rep.set("server.submit_s_p50", median(out.submit))
	rep.set("server.queue_wait_s_p50", float64(after.Histograms["server.queue_wait_ns"].P50)/1e9)
	rep.set("server.queue_wait_s_p90", float64(after.Histograms["server.queue_wait_ns"].P90)/1e9)
	rep.set("server.run_s_p50", float64(after.Histograms["server.job_ns"].P50)/1e9)
	submitted := delta("server.submitted")
	rejected := delta("server.rejected_queue_full") + delta("server.rejected_invalid") +
		delta("server.rejected_draining") + delta("server.rejected_recovering")
	rep.set("server.cache_hit_frac", delta("server.cache_hits")/max(submitted, 1))
	rep.set("server.rejected_frac", rejected/max(submitted+rejected, 1))
	rep.set("journal.fsyncs_per_job", delta("journal.fsyncs")/max(float64(out.jobs), 1))
	rep.set("journal.replay_s", median(replay))
	rep.set("journal.replayed_frames", float64(st.Journal.Frames))
	return out, nil
}
