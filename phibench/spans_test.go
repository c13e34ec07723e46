package main

import (
	"math"
	"testing"

	"phihpl/internal/trace"
)

func TestAggregateSumsPhasesToBusy(t *testing.T) {
	spans := []trace.Span{
		{Worker: 0, Name: "PanelFact", Start: 0, End: 1},
		{Worker: 0, Name: "Update", Start: 1, End: 3},
		{Worker: 1, Name: "Update", Start: 0.5, End: 2.5},
		{Worker: 1, Name: "PanelFact", Start: 2.5, End: 3},
		{Worker: 2, Name: "Refine", Start: 0, End: 4}, // not a kept phase
		{Worker: 1, Name: "Update", Start: 3, End: 2}, // negative: counts as zero
	}
	lt := aggregate(spans, luPhases)
	if lt.Phase["PanelFact"] != 1.5 || lt.Phase["Update"] != 4 {
		t.Fatalf("phases = %v, want PanelFact 1.5, Update 4", lt.Phase)
	}
	sum := 0.0
	for _, v := range lt.Phase {
		sum += v
	}
	if sum != lt.Busy || lt.Busy != 5.5 {
		t.Fatalf("busy = %v, phases sum to %v, want both 5.5", lt.Busy, sum)
	}
	if lt.Lanes != 2 {
		t.Fatalf("lanes = %d, want 2 (the ignored span's worker does not count)", lt.Lanes)
	}
	// Two lanes over a 3 s wall offer 6 lane-seconds; 5.5 were busy.
	if got, want := idleFrac(lt.Busy, lt.Lanes, 3), 1-5.5/6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("idle = %v, want %v", got, want)
	}
	if all := aggregate(spans, nil); all.Busy != 9.5 || all.Lanes != 3 {
		t.Fatalf("unfiltered: busy %v lanes %d, want 9.5 and 3", all.Busy, all.Lanes)
	}
}

func TestIdleFracClamps(t *testing.T) {
	for _, c := range []struct {
		busy  float64
		lanes int
		wall  float64
		want  float64
	}{
		{10, 2, 3, 0}, // overlapping spans can exceed the lanes' time
		{0, 4, 1, 1},
		{1, 0, 1, 0},
		{1, 2, 0, 0},
	} {
		if got := idleFrac(c.busy, c.lanes, c.wall); got != c.want {
			t.Errorf("idleFrac(%v, %d, %v) = %v, want %v", c.busy, c.lanes, c.wall, got, c.want)
		}
	}
}
