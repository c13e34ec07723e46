package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/journal"
	"phihpl/internal/matrix"
	"phihpl/internal/offload"
	"phihpl/internal/pack"
	"phihpl/internal/pool"
)

// shapes are the operand sizes a workload's hot calls see; the layer
// probes time each layer's public call at them.
type shapes struct {
	n       int // problem order
	m, k    int // trailing update: m×k times k×m into m×m (k = nb)
	panelM  int // panel rows (panel width is nb)
	lpanel  int // floats in the grid's L-panel message
	offload int // hybrid2d trailing block order (k = nb)
}

func shapesFor(workload string) shapes {
	s := shapes{lpanel: gridN / gridP * hplNB, offload: (jobN - jobNB) / 2}
	switch workload {
	case "native":
		s.n, s.m, s.panelM = nativeN, nativeN-hplNB, nativeN
	case "grid":
		// One rank's share of the first stage on the 2×2 grid.
		s.n, s.m, s.panelM = gridN, (gridN-hplNB)/gridP, gridN/gridP
	default:
		// The native jobs of the server mix.
		s.n, s.m, s.panelM = jobN, jobN-jobNB, jobN
	}
	s.k = hplNB
	return s
}

// probeTime runs fn until it has run at least reps times and for at
// least minDur, and returns the median seconds per call. prep, when not
// nil, runs untimed before every call.
func probeTime(reps int, minDur time.Duration, prep, fn func()) float64 {
	var secs []float64
	start := time.Now()
	for i := 0; i < reps || time.Since(start) < minDur; i++ {
		if prep != nil {
			prep()
		}
		t := time.Now()
		fn()
		secs = append(secs, time.Since(t).Seconds())
	}
	return median(secs)
}

// probeDur is the minimum time each probe runs.
const probeDur = 200 * time.Millisecond

// layerProbes times each layer's public calls at the workload's shapes
// and sets the resulting per-layer metrics on rep.
func layerProbes(rep *report, sh shapes, workers int, tmp string) error {
	const batch = 1000

	// pack: the register-blocked micro-kernels on L1-resident tiles.
	kk := hplNB
	aT, bT, cT := make([]float64, pack.DefaultTileM*kk), make([]float64, kk*pack.TileN), make([]float64, pack.DefaultTileM*pack.TileN)
	fill64(aT, 1)
	fill64(bT, 2)
	sec := probeTime(5, probeDur, nil, func() {
		for i := 0; i < batch; i++ {
			pack.MicroKernel(aT, pack.DefaultTileM, kk, bT, cT, pack.TileN, pack.DefaultTileM, pack.TileN)
		}
	})
	rep.set("pack.kernel_gflops", 2*float64(pack.DefaultTileM*pack.TileN*kk*batch)/sec/1e9)
	a32, b32, c32 := make([]float32, pack.DefaultTileM32*kk), make([]float32, kk*pack.TileN32), make([]float32, pack.DefaultTileM32*pack.TileN32)
	fill32(a32, 1)
	fill32(b32, 2)
	sec = probeTime(5, probeDur, nil, func() {
		for i := 0; i < batch; i++ {
			pack.MicroKernel32(a32, pack.DefaultTileM32, kk, b32, c32, pack.TileN32, pack.DefaultTileM32, pack.TileN32)
		}
	})
	rep.set("pack.kernel32_gflops", 2*float64(pack.DefaultTileM32*pack.TileN32*kk*batch)/sec/1e9)

	// blas: the same-run DGEMM ceiling, then the calls LU is made of.
	const dn = 1024
	da, db, dc := matrix.RandomGeneral(dn, dn, 11), matrix.RandomGeneral(dn, dn, 12), matrix.NewDense(dn, dn)
	sec = probeTime(3, probeDur, nil, func() { blas.DgemmPacked(false, false, 1, da, db, 0, dc, workers) })
	rep.set("blas.dgemm_gflops", 2*float64(dn*dn*dn)/sec/1e9)

	la, ub, tc := matrix.RandomGeneral(sh.m, sh.k, 13), matrix.RandomGeneral(sh.k, sh.m, 14), matrix.RandomGeneral(sh.m, sh.m, 15)
	rkFlops := 2 * float64(sh.m) * float64(sh.m) * float64(sh.k)
	sec = probeTime(3, probeDur, nil, func() { blas.RankKUpdate(la, ub, tc, workers) })
	rep.set("blas.rankk_gflops", rkFlops/sec/1e9)
	la32, ub32, tc32 := la.ToDense32(), ub.ToDense32(), tc.ToDense32()
	sec = probeTime(3, probeDur, nil, func() { blas.SRankKUpdate(la32, ub32, tc32, workers) })
	rep.set("blas.srankk_gflops", rkFlops/sec/1e9)

	src := matrix.RandomGeneral(sh.panelM, sh.k, 16)
	panel, piv := src.Clone(), make([]int, sh.k)
	pm, pk := float64(sh.panelM), float64(sh.k)
	panelFlops := pm*pk*pk - pk*pk*pk/3
	var perr error
	sec = probeTime(3, probeDur, func() { panel.CopyFrom(src) }, func() { perr = blas.Dgetf2Recursive(panel, piv) })
	if perr != nil {
		return fmt.Errorf("panel probe: %w", perr)
	}
	rep.set("blas.panel_gflops", panelFlops/sec/1e9)
	src32 := src.ToDense32()
	panel32 := src32.Clone()
	sec = probeTime(3, probeDur, func() { panel32.CopyFrom(src32) }, func() { perr = blas.Sgetf2(panel32, piv) })
	if perr != nil {
		return fmt.Errorf("FP32 panel probe: %w", perr)
	}
	rep.set("blas.spanel_gflops", panelFlops/sec/1e9)

	// TRSM: the U-row solve against the factored panel's unit-lower block.
	l11 := panel.View(0, 0, sh.k, sh.k)
	bsrc := matrix.RandomGeneral(sh.k, sh.m, 17)
	brow := bsrc.Clone()
	sec = probeTime(3, probeDur, func() { brow.CopyFrom(bsrc) }, func() { blas.Dtrsm(blas.Left, blas.Lower, false, blas.Unit, 1, l11, brow) })
	rep.set("blas.trsm_gflops", pk*pk*float64(sh.m)/sec/1e9)

	// LASWP: the panel's pivots applied across the trailing columns; each
	// swap reads and writes two rows.
	blk := matrix.RandomGeneral(sh.panelM, sh.m, 18)
	sec = probeTime(3, probeDur, nil, func() { blas.Dlaswp(blk, piv, 0) })
	swaps := 0
	for i, p := range piv {
		if p != i {
			swaps++
		}
	}
	rep.set("blas.laswp_gbps", float64(swaps)*4*float64(sh.m)*8/sec/1e9)

	// pool: one empty parallel region across every worker.
	sec = probeTime(5, probeDur, nil, func() {
		for i := 0; i < batch; i++ {
			pool.Do(workers, workers, func(int) {})
		}
	})
	rep.set("pool.region_us", sec/batch*1e6)

	// cluster: latency, bandwidth at the L-panel size, and a 4-rank Bcast
	// on a benchmark-made fabric.
	alpha, err := pingPong(1, 2000)
	if err != nil {
		return err
	}
	rep.set("cluster.pingpong_us", alpha*1e6)
	oneWay, err := pingPong(sh.lpanel, 200)
	if err != nil {
		return err
	}
	rep.set("cluster.gbps", float64(sh.lpanel)*8/oneWay/1e9)
	bc, err := bcastTime(gridP*gridQ, sh.lpanel, 200)
	if err != nil {
		return err
	}
	rep.set("cluster.bcast_us", bc*1e6)

	// offload: the hybrid2d jobs' trailing update through the work-stealing
	// engine, split the way the hybrid driver splits it.
	on := sh.offload
	oa, ob, oc := matrix.RandomGeneral(on, hplNB, 19), matrix.RandomGeneral(hplNB, on, 20), matrix.RandomGeneral(on, on, 21)
	cfg := offload.RealConfig{Mt: on/2 + 1, Nt: on/2 + 1, CardWorkers: 1, HostWorkers: 1}
	sec = probeTime(5, probeDur, nil, func() { offload.Compute(oa, ob, oc, cfg) })
	rep.set("offload.gflops", 2*float64(on*on*hplNB)/sec/1e9)

	// journal: one server-sized fsync'd append.
	us, err := journalAppend(tmp, 200)
	if err != nil {
		return err
	}
	rep.set("journal.append_us", us)

	// matrix: input generation and the residual check at the workload's n.
	var a *matrix.Dense
	var b []float64
	sec = probeTime(3, probeDur, nil, func() { a, b = matrix.RandomSystem(sh.n, 22) })
	rep.set("matrix.gen_s", sec)
	sec = probeTime(3, probeDur, nil, func() { _ = matrix.Residual(a, b, b) })
	rep.set("matrix.residual_s", sec)
	return nil
}

func fill64(v []float64, s float64) {
	for i := range v {
		v[i] = s + float64(i%7)/7
	}
}

func fill32(v []float32, s float32) {
	for i := range v {
		v[i] = s + float32(i%7)/7
	}
}

// pingPong bounces a floats-long message between two ranks reps times and
// returns the median one-way time (half the round trip).
func pingPong(floats, reps int) (float64, error) {
	msg := make([]float64, floats)
	var rtt []float64
	w := cluster.NewWorld(2, 4)
	err := w.Run(func(c *cluster.Comm) error {
		for i := 0; i < reps; i++ {
			if c.Rank() == 0 {
				t := time.Now()
				if err := c.Send(1, 1, msg, nil); err != nil {
					return err
				}
				if _, err := c.Recv(1, 1); err != nil {
					return err
				}
				rtt = append(rtt, time.Since(t).Seconds())
				continue
			}
			m, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if err := c.Send(0, 1, m.F, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("ping-pong probe: %w", err)
	}
	return median(rtt) / 2, nil
}

// bcastTime broadcasts a floats-long message from rank 0 over size ranks
// reps times and returns the median time from the opening barrier until
// every rank has the payload (a closing barrier marks that).
func bcastTime(size, floats, reps int) (float64, error) {
	msg := make([]float64, floats)
	var secs []float64
	w := cluster.NewWorld(size, 4)
	err := w.Run(func(c *cluster.Comm) error {
		for i := 0; i < reps; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			t := time.Now()
			var payload []float64
			if c.Rank() == 0 {
				payload = msg
			}
			if _, err := c.Bcast(0, 2, payload, nil); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				secs = append(secs, time.Since(t).Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("bcast probe: %w", err)
	}
	return median(secs), nil
}

// journalAppend times reps fsync'd appends of a server-sized record to a
// fresh journal under tmp and returns the median in microseconds.
func journalAppend(tmp string, reps int) (float64, error) {
	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(filepath.Join(dir, "probe.wal"), journal.Options{})
	if err != nil {
		return 0, err
	}
	defer j.Close()
	// About the size of a job's "end" record with its result view.
	rec := []byte(`{"t":"end","id":"j-1234","state":"PASSED","result":{"n":384,"residual":0.0123456789,"passed":true,"seconds":0.0123,"gflops":1.234},"attempt":1,"tenant":"tenant-a","mode":"native","nb":64,"seed":1234567890123456789}`)
	var aerr error
	sec := probeTime(reps, 0, nil, func() {
		if err := j.Append(rec); err != nil && aerr == nil {
			aerr = err
		}
	})
	if aerr != nil {
		return 0, fmt.Errorf("journal probe: %w", aerr)
	}
	return sec * 1e6, nil
}
