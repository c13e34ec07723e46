package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"phihpl/internal/lu"
	"phihpl/internal/server"
)

// TestSeedReachesInputs follows --seed to the generated systems and the
// server's job stream: the same seed gives the same inputs, another seed
// other inputs.
func TestSeedReachesInputs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "native", "--seed", "7", "--seconds", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 7 || o.seconds != 3 || o.workload != "native" {
		t.Fatalf("parsed %+v", o)
	}
	small := hplCase{name: "small", n: 16, stream: nativeCase.stream}
	a, b, c := makeSystems(small, o.seed), makeSystems(small, 7), makeSystems(small, 8)
	for i := range a {
		if a[i].seed != b[i].seed || !reflect.DeepEqual(a[i].a.Data, b[i].a.Data) || !reflect.DeepEqual(a[i].b, b[i].b) {
			t.Fatalf("system %d differs between two runs with seed 7", i)
		}
		if a[i].seed == c[i].seed || reflect.DeepEqual(a[i].a.Data, c[i].a.Data) {
			t.Fatalf("system %d is the same under seeds 7 and 8", i)
		}
		for j := 0; j < i; j++ {
			if a[i].seed == a[j].seed {
				t.Fatalf("systems %d and %d of one run share a seed", i, j)
			}
		}
	}
	if g := makeSystems(hplCase{n: 16, stream: gridCase.stream}, 7); g[0].seed == a[0].seed {
		t.Fatal("native and grid draw the same seeds")
	}

	p7, q7, p8 := &jobPlan{seed: 7}, &jobPlan{seed: 7}, &jobPlan{seed: 8}
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		x, y, z := p7.fresh(1), q7.fresh(1), p8.fresh(1)
		if x != y {
			t.Fatalf("job %d differs between two plans with seed 7: %+v vs %+v", i, x, y)
		}
		if x.Seed == z.Seed {
			t.Fatalf("job %d has the same seed under run seeds 7 and 8", i)
		}
		if seen[x.Seed] {
			t.Fatalf("job %d repeats a fresh seed", i)
		}
		seen[x.Seed] = true
	}
	other := &jobPlan{seed: 7, client: 1}
	if other.fresh(1).Seed == (&jobPlan{seed: 7}).fresh(1).Seed {
		t.Fatal("two clients draw the same fresh seed")
	}
}

func TestJobMix(t *testing.T) {
	p := &jobPlan{seed: 3}
	kinds, tenantsSeen := map[jobKind]int{}, map[string]int{}
	for i := 0; i < 8*len(jobKinds); i++ {
		js := p.fresh(1)
		kinds[jobKind{js.Mode, js.Precision}]++
		tenantsSeen[js.Tenant]++
	}
	for _, k := range jobKinds {
		if kinds[k] != 8 {
			t.Errorf("kind %v drawn %d times in 32 jobs, want 8", k, kinds[k])
		}
	}
	for _, tn := range tenants {
		if tenantsSeen[tn] != 16 {
			t.Errorf("tenant %s got %d of 32 jobs, want 16", tn, tenantsSeen[tn])
		}
	}
	repeats := 0
	for i := 0; i < 4000; i++ {
		if _, ok := p.repeatPick(i, 10); ok {
			repeats++
		}
	}
	if repeats < 800 || repeats > 1200 {
		t.Errorf("%d of 4000 submissions repeat a spec, want about 1000", repeats)
	}
	if _, ok := p.repeatPick(0, 0); ok {
		t.Error("a repeat was picked with nothing completed")
	}
}

// TestSolveGate checks the correct-output gate on a small system: passing
// solves are accepted, a changed bit of a repeated solve, a wrong x and a
// mixed solve without a refine report are not.
func TestSolveGate(t *testing.T) {
	ctx := context.Background()
	sys := makeSystems(hplCase{n: 96, stream: nativeCase.stream}, 5)[0]
	chk := newSolveChecker()
	for _, mixed := range []bool{false, true, false, true} {
		f := nativeFP64
		if mixed {
			f = nativeMixed
		}
		out, err := f(ctx, sys, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := chk.check(sys, mixed, out); err != nil {
			t.Fatalf("mixed=%v: a correct solve was rejected: %v", mixed, err)
		}
	}
	out, err := nativeFP64(ctx, sys, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	flipped := out
	flipped.x = append([]float64(nil), out.x...)
	flipped.x[3] = math.Nextafter(flipped.x[3], math.Inf(1))
	if chk.check(sys, false, flipped) == nil {
		t.Error("a solve one ulp off the first solve of its seed was accepted")
	}
	wrong := out
	wrong.x = make([]float64, len(out.x))
	if chk.check(sys, false, wrong) == nil {
		t.Error("x = 0 was accepted")
	}
	if chk.check(sys, true, out) == nil {
		t.Error("a mixed solve without a refine report was accepted")
	}
}

func TestJobGate(t *testing.T) {
	js := jobSpec(jobKinds[1], 9, tenants[0], 1)
	ok := server.JobView{ID: "j-1", State: server.StatePassed,
		Result: &server.ResultView{N: jobN, Residual: 0.25, Passed: true, Refine: &lu.MixedReport{Iterations: 2}}}
	leader := map[uint64]float64{}
	if err := checkJob(js, ok, leader); err != nil {
		t.Fatalf("a passing job was rejected: %v", err)
	}
	leader[js.Seed] = 0.25
	hit := ok
	hit.Cached = true
	if err := checkJob(js, hit, leader); err != nil {
		t.Fatalf("a cache hit with its leader's residual was rejected: %v", err)
	}
	off := hit
	off.Result = &server.ResultView{N: jobN, Residual: math.Nextafter(0.25, 1), Passed: true, Refine: ok.Result.Refine}
	if checkJob(js, off, leader) == nil {
		t.Error("a cache hit whose residual differs from its leader's was accepted")
	}
	failed := ok
	failed.State = server.StateFailed
	if checkJob(js, failed, leader) == nil {
		t.Error("a FAILED job was accepted")
	}
	noRefine := ok
	noRefine.Result = &server.ResultView{N: jobN, Residual: 0.25, Passed: true}
	if checkJob(js, noRefine, map[uint64]float64{}) == nil {
		t.Error("a mixed job without a refine report was accepted")
	}
}
