package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"phihpl"
	"phihpl/internal/pack"
)

// TestMixedBestPrefersFP32Path: one non-fallback iteration makes the row
// PASSED with the speedup against FP64, even when faster fallback
// iterations were also recorded.
func TestMixedBestPrefersFP32Path(t *testing.T) {
	var m mixedBest
	m.add(0.5, phihpl.RefineReport{FellBack: true, Reason: phihpl.FallbackStalled, Iterations: 3})
	m.add(2.0, phihpl.RefineReport{Iterations: 2})
	m.add(1.0, phihpl.RefineReport{Iterations: 2}) // best of the ok runs
	m.add(0.25, phihpl.RefineReport{FellBack: true, Reason: phihpl.FallbackStalled, Iterations: 4})

	row, err := m.row("Hpl2D-mixed-pipelined", 96, 16, 2, 2, 1e9, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if row.Verdict != "PASSED" {
		t.Errorf("verdict = %q, want PASSED", row.Verdict)
	}
	if row.NsPerOp != 1.0*1e9 {
		t.Errorf("NsPerOp = %g, want the best ok iteration (1e9)", row.NsPerOp)
	}
	if row.SpeedupVsFP64 != 1.5 {
		t.Errorf("SpeedupVsFP64 = %g, want 1.5", row.SpeedupVsFP64)
	}
	if row.RefineIters != 2 {
		t.Errorf("RefineIters = %d, want 2", row.RefineIters)
	}
	if row.FallbackReason != "" {
		t.Errorf("FallbackReason = %q, want empty on a PASSED row", row.FallbackReason)
	}
}

// TestMixedBestAllFallbacks: when every iteration abandoned the FP32
// factors, the row is FALLBACK with the typed reason and no speedup —
// comparing the FP64 rerun against the FP64 baseline would be
// meaningless.
func TestMixedBestAllFallbacks(t *testing.T) {
	var m mixedBest
	m.add(3.0, phihpl.RefineReport{FellBack: true, Reason: phihpl.FallbackSingular})
	m.add(2.0, phihpl.RefineReport{FellBack: true, Reason: phihpl.FallbackStalled, Iterations: 5})

	row, err := m.row("MxP-mixed", 96, 16, 0, 0, 1e9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if row.Verdict != "FALLBACK" {
		t.Errorf("verdict = %q, want FALLBACK", row.Verdict)
	}
	if row.NsPerOp != 2.0*1e9 {
		t.Errorf("NsPerOp = %g, want the best fallback iteration (2e9)", row.NsPerOp)
	}
	if row.FallbackReason != "refinement-stalled" {
		t.Errorf("FallbackReason = %q, want refinement-stalled", row.FallbackReason)
	}
	if row.RefineIters != 5 {
		t.Errorf("RefineIters = %d, want 5", row.RefineIters)
	}
	if row.SpeedupVsFP64 != 0 {
		t.Errorf("SpeedupVsFP64 = %g, want omitted (0) on a FALLBACK row", row.SpeedupVsFP64)
	}
}

// TestMixedBestEmpty: a case with no recorded iterations is a bug in the
// driver loop and must surface as an error, not a zero row.
func TestMixedBestEmpty(t *testing.T) {
	var m mixedBest
	_, err := m.row("Hpl2D-mixed-none", 96, 16, 2, 2, 1e9, 1.0)
	if err == nil || !strings.Contains(err.Error(), "no iterations") {
		t.Fatalf("err = %v, want no-iterations error", err)
	}
}

// TestHeaderNamesKernel: the file header says which micro-kernel rung
// the packed rows ran on, and how many CPUs the host has, so a
// DgemmPacked-asm row can be read without knowing the machine.
func TestHeaderNamesKernel(t *testing.T) {
	f := newBenchFile(3)
	if f.Kernel != pack.KernelName() || f.Kernel32 != pack.Kernel32Name() {
		t.Fatalf("kernel %q/%q, want %q/%q", f.Kernel, f.Kernel32, pack.KernelName(), pack.Kernel32Name())
	}
	for _, k := range []string{f.Kernel, f.Kernel32} {
		if k != "avx512" && k != "avx2" && k != "scalar" {
			t.Fatalf("unknown rung %q", k)
		}
	}
	if f.NProc != runtime.NumCPU() || f.NProc < 1 || f.Workers != 3 {
		t.Fatalf("nproc %d workers %d, want %d and 3", f.NProc, f.Workers, runtime.NumCPU())
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"kernel":`, `"kernel32":`, `"nproc":`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("header JSON %s lacks %s", b, key)
		}
	}
}
