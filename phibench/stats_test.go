package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{seq(10), 0.5, 5.5},
		{seq(10), 0.9, 9.1},
		{seq(10), 0, 1},
		{seq(10), 1, 10},
		{seq(101), 0.9, 91},
		{[]float64{7}, 0.9, 7},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := median(seq(10)); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestTailRule pins the "at least ten samples above p90" rule: 90 samples
// leave 9 above their p90, 99 and 100 leave 10.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		above int
		ok    bool
	}{
		{90, 9, false},
		{99, 10, true},
		{100, 10, true},
		{20, 2, false},
	} {
		xs := seq(c.n)
		if got := above(xs, quantile(xs, 0.9)); got != c.above {
			t.Errorf("%d samples: %d above p90, want %d", c.n, got, c.above)
		}
		if got := tailOK(xs, 0.9); got != c.ok {
			t.Errorf("%d samples: tailOK = %v, want %v", c.n, got, c.ok)
		}
	}
}

func TestWindowRate(t *testing.T) {
	// 10 events per second for 5 s, with a stalled second (1 event) and
	// a burst second (30): the trimmed windows keep 10/s.
	var at []float64
	for sec, n := range []int{10, 1, 10, 30, 10} {
		for i := 0; i < n; i++ {
			at = append(at, float64(sec)+float64(i)/float64(n))
		}
	}
	at = append(at, 5.2) // past the last whole window
	if got := windowRate(at, 5.5, 1, nil); got != 10 {
		t.Fatalf("windowRate = %v, want 10", got)
	}
	// Half-second windows: 5,5, 1,0, 5,5, 15,15, 5,5 → trim 2 each end.
	if got := windowRate(at, 5, 0.5, nil); got != 10 {
		t.Fatalf("half-second windows: %v, want 10", got)
	}
	if !math.IsNaN(windowRate(at, 0.5, 1, nil)) {
		t.Fatal("a span shorter than one window gave a rate")
	}
}

func TestWindowRateDiscountsSteal(t *testing.T) {
	// 8 events per second for 4 s; the hypervisor took a fifth of every
	// window's CPU time, so each window had 0.8 s of it: 10 per second.
	var at []float64
	for i := 0; i < 32; i++ {
		at = append(at, float64(i)/8)
	}
	if got := windowRate(at, 4, 1, []float64{0.2, 0.2, 0.2, 0.2}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("windowRate = %v, want 10", got)
	}
	// Windows without a steal reading count as whole.
	if got := windowRate(at, 4, 1, []float64{0.2}); got != 8 {
		t.Fatalf("windowRate with one reading = %v, want 8 (IQM of 10, 8, 8, 8)", got)
	}
}

func TestStolenShare(t *testing.T) {
	if got := stolenShare(10, 1000, 60, 1200); got != 0.25 {
		t.Fatalf("stolenShare = %v, want 0.25", got)
	}
	for _, c := range [][4]uint64{{0, 0, 5, 100}, {10, 1000, 10, 1000}, {10, 1000, 5, 1100}} {
		if got := stolenShare(c[0], c[1], c[2], c[3]); got != 0 {
			t.Errorf("stolenShare%v = %v, want 0", c, got)
		}
	}
	stolen := []float64{0.1, 0.5}
	for _, c := range []struct{ t, want float64 }{{0.5, 0.9}, {1.5, 0.5}, {2.5, 1}, {-1, 1}} {
		if got := availAt(stolen, 1, c.t); got != c.want {
			t.Errorf("availAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestHostSpeed(t *testing.T) {
	if got := hostSpeed([]float64{9, 4.5, 0.5, 5.4, 4.5}); got != 1 {
		t.Fatalf("hostSpeed = %v, want 1 (median 4.5 of the reference)", got)
	}
	if got := hostSpeed([]float64{5.4}); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("hostSpeed = %v, want 1.2", got)
	}
	if got := hostSpeed(nil); got != 1 {
		t.Fatalf("hostSpeed without samples = %v, want 1", got)
	}
}

func TestInterquartileMean(t *testing.T) {
	if got := interquartileMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Fatalf("IQM = %v, want 3.5 (mean of 2..5)", got)
	}
	if got := interquartileMean([]float64{4, 2}); got != 3 {
		t.Fatalf("IQM of two = %v, want their mean", got)
	}
	if !math.IsNaN(interquartileMean(nil)) {
		t.Fatal("IQM of no samples is not NaN")
	}
}
