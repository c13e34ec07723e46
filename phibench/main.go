// Command phibench is the phihpl benchmark. It runs one workload in this
// process and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict, its attempted and failed
// operation counts, and its metrics:
//
//	phibench --workload native|grid|server --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no recorder attached;
// --trace 1 is the separate traced run that prints the per-layer metrics
// and writes a Chrome trace. Every operation's output is checked; a wrong
// answer makes the run exit 1 without a result line. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/metrics"
	"phihpl/internal/offload"
	"phihpl/internal/pool"
)

var workloads = []string{"native", "grid", "server"}

// options are the parsed command line plus the derived settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string // directory for the Chrome trace and scratch files
	tmp      string // scratch directory under out, removed at exit
	workers  int    // GOMAXPROCS and solver workers: nproc
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's result.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	notes             map[string]any // context printed above the result line
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]any{}}
}

// set records a declared metric; its unit comes from the declaration.
func (r *report) set(name string, v float64) { r.metrics[name] = metric{v, unitOf(name)} }
func (r *report) note(k string, v any)       { r.notes[k] = v }

// noteCalib records the host calibration samples of the run: their
// median and range tell host drift apart from a program change.
func (r *report) noteCalib(c []float64) {
	if len(c) == 0 {
		return
	}
	r.notes["env.calib_gflops"] = map[string]float64{
		"median": median(c), "min": slices.Min(c), "max": slices.Max(c), "samples": float64(len(c)),
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// observer attaches a metrics registry to every layer that exposes one.
type observer struct{ reg *metrics.Registry }

func (o *observer) attach() { o.set(o.reg) }
func (o *observer) detach() { o.set(nil) }

func (o *observer) set(reg *metrics.Registry) {
	blas.SetObservability(nil, reg)
	pool.SetObservability(nil, reg)
	offload.SetObservability(nil, reg)
	lu.SetMetrics(reg)
	hpl.SetMetrics(reg)
	cluster.SetMetrics(reg)
}

func (o *observer) counter(name string) int64 { return o.reg.Counter(name).Value() }

// regions counts the pool regions entered so far, parallel or degraded to
// the caller alone.
func (o *observer) regions() int64 {
	return o.counter("pool.regions") + o.counter("pool.serial_regions")
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("phibench", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "workload: native, grid or server")
	fs.Uint64Var(&o.seed, "seed", 1, "run seed; every input is derived from it")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/phibench", "directory for the Chrome trace and scratch files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case !slices.Contains(workloads, o.workload):
		return o, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloads)
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phibench:", err)
		return 2
	}
	o.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(o.workers)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "phibench:", err)
		return 1
	}
	if o.tmp, err = os.MkdirTemp(o.out, "tmp-"); err != nil {
		fmt.Fprintln(os.Stderr, "phibench:", err)
		return 1
	}
	defer os.RemoveAll(o.tmp)

	printJSON(map[string]any{"header": newHeader(o)})
	// A run that wedges is cut off well inside three minutes at 30 s.
	ctx, cancel := context.WithTimeout(context.Background(), 2*o.duration()+100*time.Second)
	defer cancel()
	steal0, total0 := cpuTicks()
	var rep *report
	if o.trace == 1 {
		rep, err = runTraced(ctx, o)
	} else {
		switch o.workload {
		case "native":
			rep, err = runHPL(ctx, nativeCase, o)
		case "grid":
			rep, err = runHPL(ctx, gridCase, o)
		case "server":
			rep, err = runServer(ctx, o)
		}
	}
	if err == nil {
		want := endToEnd
		if o.trace == 1 {
			want = perLayer
		}
		err = checkMetrics(rep.metrics, want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "phibench: %s: FAILED after %d attempted, %d failed operations: %v\n",
			o.workload, rep.attempted, rep.failed, err)
		return 1
	}
	steal1, total1 := cpuTicks()
	rep.note("host_steal_frac", stolenShare(steal0, total0, steal1, total1))
	printJSON(map[string]any{"notes": rep.notes})
	printJSON(result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics})
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers and strings are printed
	}
	fmt.Println(string(b))
}
