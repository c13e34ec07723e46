package main

import "phihpl/internal/trace"

// laneTime is the span set of one traced operation reduced to lane-seconds
// per phase: every span's duration is charged to its name, so the phases
// sum to the busy lane time by construction.
type laneTime struct {
	Phase map[string]float64 // lane-seconds per span name
	Busy  float64            // sum over Phase
	Lanes int                // distinct workers that recorded a span
}

// aggregate reduces spans to lane-seconds per phase. Spans whose name is
// not in keep are ignored (nil keep keeps every name); negative durations
// count as zero.
func aggregate(spans []trace.Span, keep map[string]bool) laneTime {
	lt := laneTime{Phase: map[string]float64{}}
	lanes := map[int]bool{}
	for _, s := range spans {
		if keep != nil && !keep[s.Name] {
			continue
		}
		d := s.Duration()
		if d < 0 {
			d = 0
		}
		lt.Phase[s.Name] += d
		lt.Busy += d
		lanes[s.Worker] = true
	}
	lt.Lanes = len(lanes)
	return lt
}

// idleFrac is 1 − busy ÷ (lanes · wall), the share of the lanes' wall time
// in which no span was open, clamped to [0, 1].
func idleFrac(busy float64, lanes int, wall float64) float64 {
	if lanes < 1 || wall <= 0 {
		return 0
	}
	f := 1 - busy/(float64(lanes)*wall)
	return min(max(f, 0), 1)
}
