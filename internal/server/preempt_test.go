package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"phihpl"
	"phihpl/internal/testutil"
	"phihpl/internal/trace"
)

// wedgedRunner ignores its context entirely — the worst-behaved solve the
// preemption ladder must defend against. It blocks on release, never ctx.
func wedgedRunner(release chan struct{}) RunnerFunc {
	return func(_ context.Context, sp Spec, _ *trace.Recorder) (phihpl.SolveResult, error) {
		<-release
		return phihpl.SolveResult{N: sp.N, Residual: 1e-3, Passed: true}, nil
	}
}

func waitCounter(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.Registry().Counter(name).Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d", name, s.Registry().Counter(name).Value(), want)
}

// TestPreemptWedgedSolve: a solve that ignores cancellation is
// force-finalized after deadline + grace — the job turns ABORTED with a
// typed PreemptedError carrying the wedged goroutine's stack, and the
// scheduler slot plus admission-gate memory are reclaimed so the next
// job runs while the wedged goroutine is still stuck.
func TestPreemptWedgedSolve(t *testing.T) {
	defer testutil.NoLeaks(t)()
	release := make(chan struct{})
	cfg := testConfig()
	cfg.Concurrency = 1
	cfg.PreemptGrace = 50 * time.Millisecond
	cfg.Runner = wedgedRunner(release)
	s := New(cfg)

	wedged := mustSubmit(t, s, JobSpec{N: 64, Seed: 1, TimeoutMs: 50})
	if st := waitTerminal(t, wedged); st != StateAborted {
		t.Fatalf("wedged job state %s, want ABORTED", st)
	}
	ei := wedged.view().Error
	if ei == nil || ei.Kind != "preempted" {
		t.Fatalf("wedged job error = %+v, want kind preempted", ei)
	}
	if !strings.Contains(ei.WedgedStack, "goroutine") {
		t.Errorf("preempted error carries no stack: %q", ei.WedgedStack)
	}
	if got := s.Registry().Counter("server.preempted").Value(); got != 1 {
		t.Errorf("server.preempted = %d, want 1", got)
	}

	// The slot and memory are free even though the runner is still wedged:
	// the worker's return released both, and a follow-up job gets the slot.
	// The worker returns just after force-finalize publishes ABORTED, so
	// wait for the release rather than racing it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		memHeld := s.memUsed
		s.mu.Unlock()
		if memHeld == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission-gate memory still held after force-finalize: %d bytes", memHeld)
		}
		time.Sleep(time.Millisecond)
	}
	// The follow-up would also wedge on the same runner, so bound the check
	// to reaching RUNNING: occupying the lone worker slot is the proof.
	next := mustSubmit(t, s, JobSpec{N: 64, Seed: 2})
	waitState(t, next, StateRunning)

	// Unwedge the abandoned goroutine; its late return must be discarded
	// (the job stays ABORTED) and counted.
	close(release)
	waitCounter(t, s, "server.preempt_late_returns", 1)
	if st := wedged.currentState(); st != StateAborted {
		t.Errorf("late return overwrote the preemption outcome: state %s", st)
	}
	s.Close()
}

// TestPreemptCooperativeSolveUsesCtxPath: a runner that honors its
// context aborts through the normal "aborted" classification — the
// force-finalize rung must not fire for well-behaved solves.
func TestPreemptCooperativeSolveUsesCtxPath(t *testing.T) {
	defer testutil.NoLeaks(t)()
	gate := make(chan struct{}) // never closed: runner waits on ctx
	cfg := testConfig()
	cfg.PreemptGrace = time.Second
	cfg.Runner = gatedRunner(gate)
	s := New(cfg)
	defer s.Close()

	j := mustSubmit(t, s, JobSpec{N: 64, TimeoutMs: 50})
	if st := waitTerminal(t, j); st != StateAborted {
		t.Fatalf("job state %s, want ABORTED", st)
	}
	ei := j.view().Error
	if ei == nil || ei.Kind != "aborted" {
		t.Fatalf("cooperative timeout error = %+v, want kind aborted", ei)
	}
	if got := s.Registry().Counter("server.preempted").Value(); got != 0 {
		t.Errorf("server.preempted = %d for a cooperative abort, want 0", got)
	}
}

// TestDrainForceFinalizesWedgedJob: the drain path flows through the same
// preemption ladder, so a wedged solve can no longer hold shutdown
// hostage — Drain completes within the grace window, not the old 30s
// give-up, and exits cleanly.
func TestDrainForceFinalizesWedgedJob(t *testing.T) {
	defer testutil.NoLeaks(t)()
	release := make(chan struct{})
	cfg := testConfig()
	cfg.Concurrency = 1
	cfg.PreemptGrace = 50 * time.Millisecond
	cfg.DefaultTimeout = time.Hour // only the drain cancellation ends it
	cfg.Runner = wedgedRunner(release)
	s := New(cfg)

	j := mustSubmit(t, s, JobSpec{N: 64})
	waitState(t, j, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain with a wedged job: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("drain took %s; the preemption ladder should bound it near ctx + grace", elapsed)
	}
	if st := j.currentState(); st != StateAborted {
		t.Errorf("wedged job state after drain = %s, want ABORTED", st)
	}
	ei := j.view().Error
	if ei == nil || ei.Kind != "preempted" {
		t.Errorf("wedged job error after drain = %+v, want kind preempted", ei)
	}
	close(release)
	waitCounter(t, s, "server.preempt_late_returns", 1)
}
