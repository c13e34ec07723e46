package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"phihpl/internal/pack"
)

// header describes the machine and the run, so a figure can be read
// against the hardware and settings that produced it.
type header struct {
	Workload       string   `json:"workload"`
	Seed           uint64   `json:"seed"`
	Seconds        int      `json:"seconds"`
	Trace          int      `json:"trace"`
	CPU            string   `json:"cpu"`
	SIMD           []string `json:"simd"`
	VectorKernel   bool     `json:"vector_kernel"`
	VectorKernel32 bool     `json:"vector_kernel32"`
	NProc          int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	Workers        int      `json:"workers"`
	GoVersion      string   `json:"go"`
}

func newHeader(o options) header {
	model, flags := cpuInfo()
	return header{
		Workload:       o.workload,
		Seed:           o.seed,
		Seconds:        o.seconds,
		Trace:          o.trace,
		CPU:            model,
		SIMD:           flags,
		VectorKernel:   pack.VectorKernel(),
		VectorKernel32: pack.VectorKernel32(),
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Workers:        o.workers,
		GoVersion:      runtime.Version(),
	}
}

// simdFlags are the /proc/cpuinfo flags that decide which kernels run.
var simdFlags = map[string]bool{
	"sse4_2": true, "avx": true, "avx2": true, "fma": true,
	"avx512f": true, "avx512dq": true, "avx512vl": true,
}

// cpuInfo reads the CPU model name and the SIMD flags of the first CPU
// from /proc/cpuinfo ("unknown" and nil where it is unreadable).
func cpuInfo() (model string, flags []string) {
	model = "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == nil {
				for _, fl := range strings.Fields(v) {
					if simdFlags[fl] {
						flags = append(flags, fl)
					}
				}
				return model, flags
			}
		}
	}
	return model, flags
}

// peakRSSMiB returns the process's peak resident set size (VmHWM) in MiB,
// or 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// calibIters sizes one calibration sample at about a millisecond.
const calibIters = 1 << 17

// calibSink keeps the calibration loop's result live.
var calibSink float64

// refCalibGFLOPS is the calibration rate of the reference host the
// end-to-end rates and times are restated at (about this 2-vCPU Xeon VM's
// typical reading).
const refCalibGFLOPS = 4.5

// hostSpeed is the run's host speed relative to the reference host: the
// median of the run's calibration samples ÷ refCalibGFLOPS; 1 without
// samples. A rate measured on the run's host is divided by it and a time
// multiplied by it, so that a host running its cores faster or slower for
// the whole run does not read as a faster or slower program.
func hostSpeed(calib []float64) float64 {
	if len(calib) == 0 {
		return 1
	}
	return median(calib) / refCalibGFLOPS
}

// calibGFLOPS runs a fixed single-threaded floating-point loop owned by
// the benchmark — eight independent multiply-add chains, 16 flops per
// iteration — and returns its rate. It touches no program code, so its
// drift between samples is the host's (frequency, co-tenants), not the
// program's.
func calibGFLOPS() float64 {
	a0, a1, a2, a3 := 1.0, 1.1, 1.2, 1.3
	a4, a5, a6, a7 := 1.4, 1.5, 1.6, 1.7
	const m, c = 0.999999, 1e-7
	t := time.Now()
	for i := 0; i < calibIters; i++ {
		a0 = a0*m + c
		a1 = a1*m + c
		a2 = a2*m + c
		a3 = a3*m + c
		a4 = a4*m + c
		a5 = a5*m + c
		a6 = a6*m + c
		a7 = a7*m + c
	}
	secs := time.Since(t).Seconds()
	calibSink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	return 16 * calibIters / secs / 1e9
}

// splitmix64 is the seed mixer every per-operation seed is derived with:
// a bijection, so distinct (seed, stream, index) triples give distinct
// solve seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the i-th seed of stream s under the run seed. Zero is
// skipped because the server maps seed 0 to its default.
func deriveSeed(seed uint64, stream, i int) uint64 {
	v := splitmix64(splitmix64(seed^uint64(stream)<<56) + uint64(i))
	if v == 0 {
		v = 1
	}
	return v
}

// cpuTicks reads the aggregate CPU line of /proc/stat and returns the
// ticks stolen by the hypervisor and the total ticks (zeros where it is
// unreadable). Their ratio over a run says how much CPU the host took.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stolenShare is the share of the CPU time between two cpuTicks readings
// that the hypervisor took from the VM; 0 when either reading is missing.
// A vCPU accrues steal only while it has work, so a phase that kept one of
// two vCPUs idle gets at most half its loss back: the share never
// overstates what the program lost.
func stolenShare(steal0, total0, steal1, total1 uint64) float64 {
	if total0 == 0 || total1 <= total0 || steal1 < steal0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// availAt is the share of CPU time the hypervisor left the VM in the
// window of width seconds holding offset t, by the per-window stolen
// shares; 1 for a window with no reading.
func availAt(stolen []float64, width, t float64) float64 {
	if i := int(t / width); t >= 0 && i < len(stolen) {
		return 1 - stolen[i]
	}
	return 1
}
