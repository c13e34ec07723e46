package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"phihpl"
	"phihpl/internal/metrics"
	"phihpl/internal/server"
	"phihpl/internal/trace"
)

// The server workload's job shapes.
const (
	jobN          = 384
	jobNB         = 64
	prefillSolves = 8    // distinct solved jobs the prefill journals
	prefillHits   = 6000 // cache-hit resubmissions of them: two journal records each, no solve
	repeatEvery   = 4    // about one submission in four repeats a completed spec

	// jobsRetained caps the terminal job records the server keeps, so they
	// do not add to peak RSS in proportion to the jobs a run completes.
	// The single-flight cache, which has no cap, still does.
	jobsRetained = 512

	// compactEvery exceeds the prefill's records, so each restart replays
	// the whole prefill rather than a snapshot of the 512 retained jobs.
	compactEvery = 16384

	// serverSetupReps is the restarts per run; setup_s is their median.
	// One restart varies by ±20% within a run, so there are more than the
	// solve workloads' setupReps: 15 restarts cost about 2 s.
	serverSetupReps = 15

	// rssAtJobs is the job count at which the load phase reads the peak
	// RSS. The single-flight cache has no cap, so memory grows with the
	// jobs completed; read at a fixed count, a faster server does not
	// read as a hungrier one. At about 100 jobs/s it is reached halfway
	// through a 30-s run; a run that does not reach it reads at its end.
	rssAtJobs = 1500

	// rateWindow is the window jobs_per_s counts completions in, and the
	// window the hypervisor's steal is read over; the reported rate is the
	// interquartile mean of the windows' rates.
	rateWindow = time.Second
)

// jobKind is one of the four job kinds of the mix.
type jobKind struct {
	mode, precision string
}

var jobKinds = []jobKind{
	{"native", "fp64"},
	{"native", "mixed"},
	{"dist2d", "fp64"},
	{"hybrid2d", "fp64"},
}

// tenants share the load with equal weight.
var tenants = []string{"tenant-a", "tenant-b"}

// jobSpec builds the wire spec of one job. workers is set for native
// jobs only, so that concurrent jobs do not oversubscribe the cores.
func jobSpec(k jobKind, seed uint64, tenant string, workers int) server.JobSpec {
	js := server.JobSpec{Tenant: tenant, Mode: k.mode, N: jobN, NB: jobNB, Seed: seed, Precision: k.precision}
	if k.mode == "native" {
		js.Workers = workers
	} else {
		js.P, js.Q = 2, 2
	}
	return js
}

// jobPlan is a client's deterministic stream of fresh submissions.
type jobPlan struct {
	seed   uint64
	client int
	next   int
}

// fresh returns the client's next fresh spec: kinds and tenants rotate,
// and the solve seed is derived from the run seed, the client and the
// submission index, so no two fresh specs collide.
func (p *jobPlan) fresh(workers int) server.JobSpec {
	i := p.next
	p.next++
	k := jobKinds[(i+p.client)%len(jobKinds)]
	t := tenants[(i/len(jobKinds)+p.client)%len(tenants)]
	return jobSpec(k, deriveSeed(p.seed, 16+p.client, i), t, workers)
}

// repeatPick says whether submission i of a client repeats a completed
// spec, and which of the client's done specs it picks.
func (p *jobPlan) repeatPick(i, done int) (int, bool) {
	if done == 0 {
		return 0, false
	}
	h := splitmix64(p.seed ^ uint64(p.client)<<40 ^ uint64(i))
	if h%repeatEvery != 0 {
		return 0, false
	}
	return int((h >> 8) % uint64(done)), true
}

// httpServer runs a server.Server's API on a loopback listener.
type httpServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

func serveHTTP(s *server.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	h := &httpServer{srv: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_ = h.http.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return h, nil
}

// stop closes the listener and connections, then drains the solve server
// (which closes its journal), and waits for the serve goroutine.
func (h *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := h.http.Shutdown(ctx)
	<-h.done
	if err := h.srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain server: %w", err)
	}
	return herr
}

// client is one closed-loop HTTP client of the job service.
type client struct {
	hc   *http.Client
	base string
}

// jobResult is one job as the client saw it.
type jobResult struct {
	view    server.JobView
	latency float64 // POST to terminal state, seconds
	submit  float64 // the POST round trip alone, seconds
}

// run submits js and follows the job to its terminal state: a completed
// cache hit answers the POST itself; any other job is followed on its
// server-sent event stream until "done", then read back for its result.
func (c *client) run(ctx context.Context, js server.JobSpec) (jobResult, error) {
	var r jobResult
	body, err := json.Marshal(js)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, fmt.Errorf("POST /v1/solve: %w", err)
	}
	err = decodeBody(resp, &r.view)
	r.submit = time.Since(t0).Seconds()
	switch {
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		// A 429 or 503 refusal is a failed operation like any other.
		return r, fmt.Errorf("POST /v1/solve: HTTP %d", resp.StatusCode)
	case err != nil:
		return r, err
	}
	if !r.view.State.Terminal() {
		if err := c.awaitDone(ctx, r.view.ID); err != nil {
			return r, err
		}
		r.latency = time.Since(t0).Seconds()
		if err := c.get(ctx, "/v1/jobs/"+r.view.ID, &r.view); err != nil {
			return r, err
		}
	} else {
		r.latency = r.submit
	}
	return r, nil
}

// awaitDone reads the job's event stream until its "done" event.
func (c *client) awaitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET stream of %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET stream of %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			// Drain the rest of the event so the connection is reusable.
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read stream of %s: %w", id, err)
	}
	return fmt.Errorf("stream of %s ended before its done event", id)
}

func (c *client) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return decodeBody(resp, v)
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// checkJob verifies a terminal job: PASSED with a passing, finite
// residual; a refine report on a mixed job; and, for a cache hit, exactly
// the residual its leader returned.
func checkJob(js server.JobSpec, v server.JobView, leaderRes map[uint64]float64) error {
	if v.State != server.StatePassed {
		msg := ""
		if v.Error != nil {
			msg = v.Error.Kind + ": " + v.Error.Message
		}
		return fmt.Errorf("job %s (%s/%s seed %d) ended %s %s", v.ID, js.Mode, js.Precision, js.Seed, v.State, msg)
	}
	r := v.Result
	if r == nil || !r.Passed || math.IsNaN(r.Residual) || math.IsInf(r.Residual, 0) || r.Residual >= phihpl.ResidualThreshold {
		return fmt.Errorf("job %s: PASSED without a passing residual: %+v", v.ID, r)
	}
	if js.Precision == "mixed" && r.Refine == nil {
		return fmt.Errorf("job %s: mixed job carries no refine report", v.ID)
	}
	if want, ok := leaderRes[js.Seed]; ok && v.Cached && math.Float64bits(want) != math.Float64bits(r.Residual) {
		return fmt.Errorf("job %s: cache hit residual %v differs from its leader's %v", v.ID, r.Residual, want)
	}
	return nil
}

// serverEnv is a journaled server on disk plus the settings every boot of
// it shares.
type serverEnv struct {
	dir     string
	cfg     server.Config
	workers int // per native job
}

func newServerEnv(tmp string, nproc int) (*serverEnv, error) {
	dir, err := os.MkdirTemp(tmp, "server-")
	if err != nil {
		return nil, fmt.Errorf("server workload: %w", err)
	}
	return &serverEnv{
		dir: dir,
		cfg: server.Config{Concurrency: nproc, JournalPath: filepath.Join(dir, "jobs.wal"),
			MaxJobsRetained: jobsRetained, CompactEvery: compactEvery},
		workers: 1, // Concurrency jobs of one worker each fill the nproc cores
	}, nil
}

// boot opens the server on the journal and serves it; it returns once
// replay has finished and /readyz answers 200. replay is Open to
// WaitRecovered; the whole boot is the restart-to-ready time.
func (e *serverEnv) boot(ctx context.Context, reg *metrics.Registry, rec *trace.Recorder) (h *httpServer, replay, ready float64, st server.RecoveryStats, err error) {
	cfg := e.cfg
	cfg.Metrics, cfg.Trace = reg, rec
	t0 := time.Now()
	s, err := server.Open(cfg)
	if err != nil {
		return nil, 0, 0, st, err
	}
	if st, err = s.WaitRecovered(ctx); err != nil {
		s.Close()
		return nil, 0, 0, st, err
	}
	replay = time.Since(t0).Seconds()
	if h, err = serveHTTP(s); err != nil {
		s.Close()
		return nil, 0, 0, st, err
	}
	c := &client{hc: &http.Client{}, base: h.url}
	for {
		var v map[string]string
		if err = c.get(ctx, "/readyz", &v); err == nil {
			break
		}
		if ctx.Err() != nil {
			_ = h.stop()
			return nil, 0, 0, st, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	c.hc.CloseIdleConnections()
	return h, replay, time.Since(t0).Seconds(), st, nil
}

// prefill journals a history for the restarts to replay: a few solved
// jobs, then many cache-hit resubmissions of them (journaled, not solved).
// It returns the number of jobs submitted and the first failure.
func (e *serverEnv) prefill(ctx context.Context, seed uint64) (int, error) {
	h, _, _, _, err := e.boot(ctx, nil, nil)
	if err != nil {
		return 0, err
	}
	c := &client{hc: &http.Client{}, base: h.url}
	defer c.hc.CloseIdleConnections()
	leader := map[uint64]float64{}
	specs := make([]server.JobSpec, prefillSolves)
	n := 0
	submit := func(js server.JobSpec) error {
		n++
		r, err := c.run(ctx, js)
		if err != nil {
			return err
		}
		if err := checkJob(js, r.view, leader); err != nil {
			return err
		}
		if !r.view.Cached {
			leader[js.Seed] = r.view.Result.Residual
		}
		return nil
	}
	for i := range specs {
		specs[i] = jobSpec(jobKinds[0], deriveSeed(seed, 8, i), tenants[i%len(tenants)], e.workers)
		if err = submit(specs[i]); err != nil {
			break
		}
	}
	for i := 0; err == nil && i < prefillHits; i++ {
		err = submit(specs[i%len(specs)])
	}
	if serr := h.stop(); err == nil {
		err = serr
	}
	return n, err
}

// serverSample is what one load phase measured.
type serverSample struct {
	latency, submit     []float64
	gflops, mixedGflops []float64 // the rate each fresh job reported
	gflopsAt, mixedAt   []float64 // their completion offsets, seconds
	jobs, failed, hits  int
	seconds             float64
	calib               []float64
	firstErr            error
	passedAt            []float64 // completion offsets of PASSED jobs, seconds
	stolen              []float64 // per rateWindow: the share of CPU time the hypervisor took
	rssMiB              float64   // peak RSS when rssAtJobs jobs had ended, or at the end
}

// discountSteal restates the sample's latencies and job rates in the
// seconds the hypervisor left the VM: each is scaled by the available
// share of the window its job completed in. On a host that steals
// nothing they are the wall-clock figures.
func (s *serverSample) discountSteal() {
	w := rateWindow.Seconds()
	for i, at := range s.passedAt {
		s.latency[i] *= availAt(s.stolen, w, at)
	}
	for i, at := range s.gflopsAt {
		s.gflops[i] /= availAt(s.stolen, w, at)
	}
	for i, at := range s.mixedAt {
		s.mixedGflops[i] /= availAt(s.stolen, w, at)
	}
}

// load drives the server with nproc closed-loop clients for d.
func (e *serverEnv) load(ctx context.Context, url string, clients int, seed uint64, d time.Duration) serverSample {
	var (
		mu  sync.Mutex
		out serverSample
		wg  sync.WaitGroup
	)
	// The steal windows start with the load.
	steal0, total0 := cpuTicks()
	w := time.NewTicker(rateWindow)
	defer w.Stop()
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &client{hc: &http.Client{}, base: url}
			defer c.hc.CloseIdleConnections()
			plan := &jobPlan{seed: seed, client: ci}
			var done []server.JobSpec
			leader := map[uint64]float64{}
			for i := 0; time.Since(start) < d; i++ {
				js := server.JobSpec{}
				if k, ok := plan.repeatPick(i, len(done)); ok {
					js = done[k]
				} else {
					js = plan.fresh(e.workers)
				}
				r, err := c.run(ctx, js)
				if err == nil {
					err = checkJob(js, r.view, leader)
				}
				at := time.Since(start).Seconds()
				mu.Lock()
				out.jobs++
				if out.jobs == rssAtJobs {
					out.rssMiB = peakRSSMiB()
				}
				switch {
				case err != nil:
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
				default:
					out.passedAt = append(out.passedAt, at)
					out.latency = append(out.latency, r.latency)
					out.submit = append(out.submit, r.submit)
					if r.view.Cached {
						out.hits++
					} else if js.Precision == "mixed" {
						out.mixedGflops = append(out.mixedGflops, r.view.Result.GFLOPS)
						out.mixedAt = append(out.mixedAt, at)
					} else {
						out.gflops = append(out.gflops, r.view.Result.GFLOPS)
						out.gflopsAt = append(out.gflopsAt, at)
					}
				}
				mu.Unlock()
				if err != nil {
					return // the run has failed; the other clients finish their time
				}
				if !r.view.Cached {
					leader[js.Seed] = r.view.Result.Residual
					done = append(done, js)
				}
			}
		}(ci)
	}
	// While the clients run, sample the host calibration loop, and read
	// the hypervisor's steal at every rateWindow boundary.
	stop := make(chan struct{})
	calibDone := make(chan struct{})
	go func() {
		defer close(calibDone)
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				// The clients' last jobs finish in a partial window.
				steal1, total1 := cpuTicks()
				mu.Lock()
				out.stolen = append(out.stolen, stolenShare(steal0, total0, steal1, total1))
				mu.Unlock()
				return
			case <-w.C:
				steal1, total1 := cpuTicks()
				sh := stolenShare(steal0, total0, steal1, total1)
				steal0, total0 = steal1, total1
				mu.Lock()
				out.stolen = append(out.stolen, sh)
				mu.Unlock()
			case <-t.C:
				g := calibGFLOPS()
				mu.Lock()
				out.calib = append(out.calib, g)
				mu.Unlock()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-calibDone
	out.seconds = time.Since(start).Seconds()
	if out.jobs < rssAtJobs {
		out.rssMiB = peakRSSMiB()
	}
	return out
}

// serverSetup prefills the journal, then restarts the server on it
// serverSetupReps times; the last boot stays up for the load phase. Each restart
// starts from a collected heap, as a restarted process would. The restarts
// all come before the load phase: a later one would also replay the load
// phase's records, and its cost would grow with throughput.
func serverSetup(ctx context.Context, e *serverEnv, seed uint64, reg *metrics.Registry, rec *trace.Recorder) (h *httpServer, ready, replay []float64, st server.RecoveryStats, prefilled int, err error) {
	prefilled, err = e.prefill(ctx, seed)
	if err != nil {
		return nil, nil, nil, st, prefilled, fmt.Errorf("server prefill: %w", err)
	}
	for i := 0; i < serverSetupReps; i++ {
		if h != nil {
			if err := h.stop(); err != nil {
				return nil, nil, nil, st, prefilled, err
			}
		}
		runtime.GC()
		var rp, rd float64
		h, rp, rd, st, err = e.boot(ctx, reg, rec)
		if err != nil {
			return nil, nil, nil, st, prefilled, fmt.Errorf("server restart: %w", err)
		}
		ready = append(ready, rd)
		replay = append(replay, rp)
	}
	return h, ready, replay, st, prefilled, nil
}

// runServer is the untraced server workload.
func runServer(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	e, err := newServerEnv(o.tmp, o.workers)
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(e.dir)
	h, ready, _, _, prefilled, err := serverSetup(ctx, e, o.seed, nil, nil)
	rep.attempted += prefilled
	if err != nil {
		rep.failed++
		return rep, err
	}
	smp := e.load(ctx, h.url, o.workers, o.seed, o.duration())
	if err := h.stop(); err != nil && smp.firstErr == nil {
		smp.firstErr = err
	}
	rep.attempted += smp.jobs
	rep.failed += smp.failed
	if smp.firstErr != nil {
		return rep, smp.firstErr
	}
	rep.note("wall_clock", map[string]float64{
		"jobs_per_s":        windowRate(smp.passedAt, smp.seconds, rateWindow.Seconds(), nil),
		"job_latency_s_p50": quantile(smp.latency, 0.5),
		"setup_s":           median(ready),
	})
	smp.discountSteal()
	sp := hostSpeed(smp.calib)
	rep.set("gflops", median(smp.gflops)/sp)
	rep.set("mixed_gflops", median(smp.mixedGflops)/sp)
	rep.set("jobs_per_s", windowRate(smp.passedAt, smp.seconds, rateWindow.Seconds(), smp.stolen)/sp)
	rep.set("job_latency_s_p50", quantile(smp.latency, 0.5)*sp)
	rep.set("job_latency_s_p90", quantile(smp.latency, 0.9)*sp)
	rep.set("setup_s", median(ready)*sp)
	rep.note("setup_s_reps", ready)
	rep.set("peak_rss_mib", smp.rssMiB)
	rep.note("peak_rss_mib_at_end", peakRSSMiB())
	rep.note("jobs", smp.jobs)
	rep.note("cache_hits", smp.hits)
	rep.note("latency_samples", len(smp.latency))
	rep.note("latency_p90_tail_ok", tailOK(smp.latency, 0.9))
	rep.noteCalib(smp.calib)
	return rep, nil
}
