package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRe.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRe)
		}
		if !unitRe.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.name, d.unit, unitRe)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric tables and the
// repository's BENCHMARK.json in step.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	cmp := func(list string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the tables %d", list, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, table %v", list, i, got[i], want[i])
			}
		}
	}
	cmp("end_to_end", bj.EndToEnd, endToEnd)
	cmp("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", bj.Workloads, workloads)
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	got := map[string]metric{}
	for _, d := range endToEnd {
		got[d.name] = metric{1, d.unit}
	}
	if err := checkMetrics(got, endToEnd); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	got["blas.dgemm_gflops"] = metric{1, "GFLOP/s"}
	if checkMetrics(got, endToEnd) == nil {
		t.Fatal("an undeclared metric was accepted")
	}
	delete(got, "blas.dgemm_gflops")
	delete(got, "setup_s")
	if checkMetrics(got, endToEnd) == nil {
		t.Fatal("a missing metric was accepted")
	}
}
