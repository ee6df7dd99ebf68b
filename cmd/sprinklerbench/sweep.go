package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"sprinkler"
)

// sweepWorkloads are the Table 1 workloads of the sweep grid: every
// locality class and read/write mix of the catalogue.
var sweepWorkloads = []string{"cfs0", "hm0", "msnfs1", "msnfs2", "proj0", "proj4"}

// sweepWorkload mirrors cmd/experiments: a 30-cell grid (all five
// schedulers × six workloads) on a 16-chip platform, run by a Runner with
// one worker per CPU over a DeviceArena shared across sweeps. Per-cell
// overheads — arena Reset, source pooling, result rendering, the Runner's
// fan-out — are a large share of its time.
type sweepWorkload struct {
	base     sprinkler.Config
	grid     sprinkler.Grid
	requests int
	workers  int

	cells  []sprinkler.Cell
	arena  *sprinkler.DeviceArena
	warm   []sprinkler.CellResult // the warm-up sweep
	layers map[string]float64     // deterministic per-layer metrics of the warm-up
}

func newSweep(o options) *sweepWorkload {
	base := sprinkler.Platform(16)
	base.BlocksPerPlane = 64
	requests := scaled(2000, o.scale)
	return &sweepWorkload{
		base:     base,
		requests: requests,
		workers:  runtime.GOMAXPROCS(0),
		grid: sprinkler.Grid{
			Base:       base,
			Schedulers: sprinkler.Schedulers(),
			Workloads:  sweepWorkloads,
			Requests:   requests,
			Seed:       o.seed,
		},
	}
}

// setup builds the cell list and a fresh arena holding one constructed
// device per worker.
func (w *sweepWorkload) setup(ctx context.Context, tr *tracer) error {
	w.cells = w.grid.Cells()
	w.arena = sprinkler.NewDeviceArena()
	devs := make([]*sprinkler.Device, w.workers)
	for i := range devs {
		if err := tr.span("sprinkler.new", -1, -1, func() (err error) {
			devs[i], err = w.arena.Get(w.base)
			return err
		}); err != nil {
			return err
		}
	}
	for _, d := range devs {
		w.arena.Put(d)
	}
	return nil
}

// sweep runs the grid once and checks every cell.
func (w *sweepWorkload) sweep(ctx context.Context, tr *tracer, rep int, ck *checker) []sprinkler.CellResult {
	var res []sprinkler.CellResult
	tr.span("sprinkler.runner_sweep", -1, rep, func() error {
		res = sprinkler.Runner{Workers: w.workers, Arena: w.arena}.Run(ctx, w.cells)
		return nil
	})
	for _, r := range res {
		err := r.Err
		if err == nil {
			err = ck.check(r.Name, r.Result, int64(w.requests))
		}
		ck.op(err)
	}
	return res
}

func (w *sweepWorkload) warmup(ctx context.Context, ck *checker) error {
	w.warm = w.sweep(ctx, nil, -1, ck)
	for _, r := range w.warm {
		if r.Err != nil {
			return r.Err
		}
	}
	iops, lat := spk3VsVAS(w.warm)
	w.layers = map[string]float64{"sched.spk3_vs_vas_iops": iops, "sched.spk3_vs_vas_latency": lat}
	return nil
}

func (w *sweepWorkload) measure(ctx context.Context, d time.Duration, tr *tracer, ck *checker) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	for k, v := range w.layers {
		p.layer[k] = v
	}
	before := w.arena.Stats()
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < d; rep++ {
		t0 := time.Now()
		res := w.sweep(ctx, tr, rep, ck)
		took := time.Since(t0)
		var ios int64
		for _, r := range res {
			if r.Result != nil {
				ios += r.Result.IOsCompleted
			}
		}
		p.rates = append(p.rates, float64(ios)/took.Seconds())
		p.calls = append(p.calls, call{"sweep", took})
		p.ios += ios
		p.ops += int64(len(res))
	}
	p.wall = time.Since(start)
	after := w.arena.Stats()
	p.layer["sprinkler.arena_device_hits"] = float64(after.DeviceHits - before.DeviceHits)
	p.layer["sprinkler.arena_device_misses"] = float64(after.DeviceMisses - before.DeviceMisses)
	p.layer["sprinkler.arena_source_hits"] = float64(after.SourceHits - before.SourceHits)
	p.layer["sprinkler.arena_source_misses"] = float64(after.SourceMisses - before.SourceMisses)
	return p, nil
}

// refs are the SPK3 cells: the simulated metrics describe the paper's
// scheduler on every workload of the grid.
func (w *sweepWorkload) refs() []*sprinkler.Result {
	var out []*sprinkler.Result
	for _, r := range w.warm {
		if r.Labels["scheduler"] == string(sprinkler.SPK3) {
			out = append(out, r.Result)
		}
	}
	return out
}

func (w *sweepWorkload) sources() ([]sprinkler.Source, error) {
	out := make([]sprinkler.Source, 0, len(w.cells))
	for _, c := range w.cells {
		src, err := c.Source(c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, src)
	}
	return out, nil
}

func (w *sweepWorkload) info(p *pass) []string {
	cells := make([]float64, len(p.calls))
	for i, c := range p.calls {
		cells[i] = float64(len(w.cells)) / c.d.Seconds()
	}
	return []string{
		fmt.Sprintf("sweeps %d of %d cells × %d requests, %d workers; cells_per_s %.4g (each %s)",
			len(p.calls), len(w.cells), w.requests, w.workers, median(cells), fmtFloats(cells)),
		fmt.Sprintf("sim_spk3_vs_vas_iops %.4g (paper: 1.8-2.2)", w.layers["sched.spk3_vs_vas_iops"]),
		fmt.Sprintf("sim_spk3_vs_vas_latency %.4g (paper: <= 0.434, i.e. >= 56.6%% shorter)", w.layers["sched.spk3_vs_vas_latency"]),
	}
}

func (w *sweepWorkload) close() { w.arena, w.cells = nil, nil }

// spk3VsVAS returns the geometric means, over the grid's workloads, of
// SPK3's IOPS and average latency relative to VAS's.
func spk3VsVAS(rs []sprinkler.CellResult) (iops, latency float64) {
	by := map[string]map[string]*sprinkler.Result{}
	for _, r := range rs {
		wl := r.Labels["workload"]
		if by[wl] == nil {
			by[wl] = map[string]*sprinkler.Result{}
		}
		by[wl][r.Labels["scheduler"]] = r.Result
	}
	var logIOPS, logLat float64
	n := 0
	for _, wl := range sweepWorkloads { // a fixed order keeps the sums bit-identical
		spk, vas := by[wl][string(sprinkler.SPK3)], by[wl][string(sprinkler.VAS)]
		if spk == nil || vas == nil || vas.IOPS == 0 || vas.AvgLatencyNS == 0 || spk.AvgLatencyNS == 0 {
			continue
		}
		logIOPS += math.Log(spk.IOPS / vas.IOPS)
		logLat += math.Log(float64(spk.AvgLatencyNS) / float64(vas.AvgLatencyNS))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logIOPS / float64(n)), math.Exp(logLat / float64(n))
}
