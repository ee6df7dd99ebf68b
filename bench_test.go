package sprinkler_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5). Each bench runs the corresponding experiment at
// a reduced-but-faithful scale (every scheduler, workload and code path is
// exercised; only instruction counts and sweep densities shrink).
// Regenerate the full-scale numbers with:
//
//	go run ./cmd/experiments -fig all
//
// The per-iteration metric reported by each bench (ns/op) is simulator
// wall time, not simulated SSD performance; the simulated results are what
// cmd/experiments prints.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"sprinkler"
	"sprinkler/internal/experiments"
)

// benchOpts is the scale used by the benches.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.05, Chips: 16}
}

// BenchmarkTable1Traces regenerates the Table 1 workload catalogue and
// synthesizes each trace.
func BenchmarkTable1Traces(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1Report(); len(out) == 0 {
			b.Fatal("empty report")
		}
		cfg := sprinkler.DefaultConfig()
		for _, name := range sprinkler.Workloads() {
			if _, err := cfg.GenerateWorkload(name, 200, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig1Stagnation reruns the die-count sensitivity sweep behind
// Figures 1a and 1b.
func BenchmarkFig1Stagnation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// evalOnce runs the shared 5-scheduler × 16-workload sweep (Figures 6,
// 10a–d, 11a/b, 13, 14) once per benchmark run and caches it.
var cachedEval *experiments.Evaluation

func evalOnce(b *testing.B) *experiments.Evaluation {
	b.Helper()
	if cachedEval == nil {
		ev, err := experiments.RunEvaluation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		cachedEval = ev
	}
	return cachedEval
}

// BenchmarkFig6Potential regenerates the Figure 6 utilization-potential
// table.
func BenchmarkFig6Potential(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Fig6()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig10Bandwidth regenerates Figure 10a.
func BenchmarkFig10Bandwidth(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Fig10a()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig10IOPS regenerates Figure 10b.
func BenchmarkFig10IOPS(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Fig10b()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig10Latency regenerates Figure 10c.
func BenchmarkFig10Latency(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Fig10c()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig10QueueStall regenerates Figure 10d.
func BenchmarkFig10QueueStall(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Fig10d()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig11Idleness regenerates Figures 11a and 11b.
func BenchmarkFig11Idleness(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Fig11a())+len(ev.Fig11b()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig12TimeSeries reruns the msnfs1 latency time series (§5.4).
func BenchmarkFig12TimeSeries(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunFig12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig13Breakdown regenerates the execution-time breakdown (§5.5).
func BenchmarkFig13Breakdown(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig13(ev)) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig14FLP regenerates the FLP breakdown (§5.6).
func BenchmarkFig14FLP(b *testing.B) {
	b.ReportAllocs()
	ev := evalOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig14(ev)) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig15Utilization reruns the transfer-size × chip-count chip
// utilization sweep (§5.7); the same points carry Figure 16's counts.
func BenchmarkFig15Utilization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig15(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.FormatFig15(pts)) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig16Transactions formats the transaction-reduction tables
// (§5.8) from a fresh sweep.
func BenchmarkFig16Transactions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig15(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.FormatFig16(pts)) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig17GC reruns the garbage-collection / readdressing-callback
// bandwidth study (§5.9).
func BenchmarkFig17GC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig17(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.FormatFig17(pts)) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkAblation reruns the design-choice ablation study (over-commit
// depth, FARO priority, decision window, allocation scheme).
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.FormatAblation(rows)) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkStreamingOpenLoop streams 100k open-loop (Poisson) requests
// per iteration through Device.Run without materializing the request
// slice: an infinite generator wrapped in Poisson arrivals, bounded by
// Limit, with the host-side backlog capped. Scale the same pipeline up
// (examples/streaming drives >= 1M requests) and memory stays flat.
func BenchmarkStreamingOpenLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sprinkler.Platform(64)
		cfg.Scheduler = sprinkler.SPK3
		cfg.MaxBacklog = 4096
		gen, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "msnfs1", Requests: 0, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		src := sprinkler.Limit(sprinkler.Poisson(gen, 200_000, 1), 100_000)
		dev, err := sprinkler.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := dev.Run(context.Background(), src)
		if err != nil {
			b.Fatal(err)
		}
		if res.IOsCompleted != 100_000 {
			b.Fatalf("completed %d/100000", res.IOsCompleted)
		}
	}
}

// sweepBenchCells declares the sweep-bench grid: all five schedulers ×
// five workloads on one 16-chip topology (25 cells), the shape whose
// per-cell device-construction cost the arena exists to amortize.
func sweepBenchCells() []sprinkler.Cell {
	cfg := sprinkler.Platform(16)
	cfg.BlocksPerPlane = 64
	return sprinkler.Grid{
		Base:       cfg,
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{"cfs0", "cfs4", "msnfs1", "hm0", "proj4"},
		Requests:   150,
	}.Cells()
}

// withoutSourceKeys strips the grid's source-pool keys so a bench can
// isolate device reuse from source reuse (the PR 4 measurement).
func withoutSourceKeys(cells []sprinkler.Cell) []sprinkler.Cell {
	out := make([]sprinkler.Cell, len(cells))
	copy(out, cells)
	for i := range out {
		out[i].SourceKey = ""
	}
	return out
}

// runSweepBench executes the grid serially (one worker keeps allocs/op a
// deterministic property of the code, not goroutine interleaving) and
// sanity-checks the results.
func runSweepBench(b *testing.B, r sprinkler.Runner, cells []sprinkler.Cell) {
	b.Helper()
	for _, cr := range r.Run(context.Background(), cells) {
		if cr.Err != nil {
			b.Fatal(cr.Err)
		}
		if cr.Result.IOsCompleted == 0 {
			b.Fatalf("cell %s completed nothing", cr.Name)
		}
	}
}

// BenchmarkSweepFresh is the reference path: every cell builds a fresh
// device (Runner.NoReuse), paying full construction per cell.
func BenchmarkSweepFresh(b *testing.B) {
	b.ReportAllocs()
	cells := withoutSourceKeys(sweepBenchCells())
	for i := 0; i < b.N; i++ {
		runSweepBench(b, sprinkler.Runner{Workers: 1, NoReuse: true}, cells)
	}
}

// BenchmarkSweepArena runs the identical 25-cell grid through a shared
// DeviceArena with source pooling disabled (keys stripped): one device is
// built on the first cell and Reset-recycled for the other 24 (and for
// every subsequent iteration), but every cell still constructs its own
// source. CI guards this bench's allocs/op — a regression here means
// device reuse started re-allocating per-cell state.
func BenchmarkSweepArena(b *testing.B) {
	b.ReportAllocs()
	cells := withoutSourceKeys(sweepBenchCells())
	arena := sprinkler.NewDeviceArena()
	for i := 0; i < b.N; i++ {
		runSweepBench(b, sprinkler.Runner{Workers: 1, Arena: arena}, cells)
	}
}

// BenchmarkSweepPooledSources is the full per-arena pooling path — the
// grid exactly as Grid.Cells emits it: devices recycle through the arena
// AND each workload coordinate's source is built once then Reset-replayed
// for every scheduler and iteration, with the retired-I/O free list riding
// along inside the pooled device. The delta against BenchmarkSweepArena is
// the per-cell source/trace construction and adapter-pool warmup this PR
// eliminates; CI guards it against bench/BENCH_pr5_baseline.txt.
func BenchmarkSweepPooledSources(b *testing.B) {
	b.ReportAllocs()
	cells := sweepBenchCells()
	arena := sprinkler.NewDeviceArena()
	for i := 0; i < b.N; i++ {
		runSweepBench(b, sprinkler.Runner{Workers: 1, Arena: arena}, cells)
	}
}

// BenchmarkSweepReusedResults layers the caller-owned result arena on the
// fully pooled sweep: devices, sources, retired-I/O free lists, and now
// the Result objects and the CellResult slice all recycle between
// iterations (Runner.Results + ResultArena.Recycle). The delta against
// BenchmarkSweepPooledSources is the per-sweep result rendering and
// Runner bookkeeping this PR eliminates; CI guards allocs/op against
// bench/BENCH_pr10_baseline.txt.
func BenchmarkSweepReusedResults(b *testing.B) {
	b.ReportAllocs()
	cells := sweepBenchCells()
	arena := sprinkler.NewDeviceArena()
	results := sprinkler.NewResultArena()
	r := sprinkler.Runner{Workers: 1, Arena: arena, Results: results}
	for i := 0; i < b.N; i++ {
		crs := r.Run(context.Background(), cells)
		for _, cr := range crs {
			if cr.Err != nil {
				b.Fatal(cr.Err)
			}
			if cr.Result.IOsCompleted == 0 {
				b.Fatalf("cell %s completed nothing", cr.Name)
			}
		}
		results.Recycle(crs)
	}
}

// BenchmarkWarmRestore prices the warm-state checkpoint/restore path
// against the preconditioning it replaces, on a GC-heavy 64-chip aged
// platform. "precondition" is the reference: build a fresh device and
// simulate the fill+churn aging pass. "restore" reads the same warm
// state back from an in-memory snapshot (decode + hydrate, the
// RestoreDevice path); "hydrate" hydrates from an already-decoded
// DeviceSnapshot (the DeviceArena/Runner path, paying no parsing). The
// restored device is byte-identical in behavior to the preconditioned
// one (TestSnapshotRestoreReplayParity), so the ns/op ratio between
// "precondition" and "restore" is the speedup a snapshot-hydrated sweep
// cell sees — >=10x at this scale, and growing with device size since
// restore cost scales with state size while preconditioning scales with
// simulated work. CI guards the restore rows' allocs/op against
// bench/BENCH_pr9_baseline.txt.
func BenchmarkWarmRestore(b *testing.B) {
	cfg := sprinkler.Platform(64)
	cfg.Scheduler = sprinkler.SPK3
	cfg.BlocksPerPlane = 24
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	const fill, churn, seed = 0.9, 0.4, 42

	src, err := sprinkler.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src.Precondition(fill, churn, seed)
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("precondition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := sprinkler.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.Precondition(fill, churn, seed)
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sprinkler.RestoreDevice(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hydrate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snap.NewDevice(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeviceSPK3 measures raw simulator throughput: one 64-chip SSD
// serving sequential reads under SPK3 (events per wall-second is the
// simulator's own figure of merit).
func BenchmarkDeviceSPK3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sprinkler.DefaultConfig()
		cfg.BlocksPerPlane = 128
		dev, err := sprinkler.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.RunRequests(sprinkler.SequentialReads(500, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelDevice measures whole-device runs on three shapes:
//
//	ch8,ch16   — pristine drive, GC off
//	gc/ch8     — aged drive under collection pressure: the configuration
//	             the paper actually evaluates, preconditioned per
//	             iteration, with background GC competing during the run
//	gc/ch8/hydrated — identical aged runs, but the warm state comes from
//	             one snapshot hydrated per iteration instead of
//	             re-simulating the aging pass
//
// The name and the /w1 row suffix date from a per-channel parallel
// kernel that has since been removed (w1 was its serial setting). They
// are kept so that CI's allocs/op gates against
// bench/BENCH_pr7_baseline.txt and bench/BENCH_pr10_baseline.txt apply
// unchanged.
func BenchmarkParallelDevice(b *testing.B) {
	for _, channels := range []int{8, 16} {
		b.Run(fmt.Sprintf("ch%d/w1", channels), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := sprinkler.DefaultConfig()
				cfg.Channels = channels
				cfg.ChipsPerChan = 2
				cfg.BlocksPerPlane = 128
				cfg.QueueDepth = 64
				cfg.DisableGC = true
				dev, err := sprinkler.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				reqs, err := cfg.GenerateWorkload("msnfs1", 600, 16)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dev.RunRequests(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	cfg := sprinkler.DefaultConfig()
	cfg.Channels = 8
	cfg.ChipsPerChan = 2
	cfg.BlocksPerPlane = 24
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	cfg.GCFreeTarget = 8
	cfg.QueueDepth = 64
	const fill, churn, pseed = 0.8, 0.5, 17

	b.Run("gc/ch8/w1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dev, err := sprinkler.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			dev.Precondition(fill, churn, pseed)
			reqs, err := cfg.GenerateWorkload("msnfs1", 600, 16)
			if err != nil {
				b.Fatal(err)
			}
			res, err := dev.RunRequests(reqs)
			if err != nil {
				b.Fatal(err)
			}
			if res.GCRuns == 0 {
				b.Fatal("aged run triggered no GC; the row prices nothing")
			}
		}
	})

	// One warm snapshot, captured once, hydrates every iteration of the
	// hydrated row.
	var warm bytes.Buffer
	{
		dev, err := sprinkler.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dev.Precondition(fill, churn, pseed)
		if err := dev.Checkpoint(&warm); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(warm.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gc/ch8/hydrated/w1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dev, err := snap.NewDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			reqs, err := cfg.GenerateWorkload("msnfs1", 600, 16)
			if err != nil {
				b.Fatal(err)
			}
			res, err := dev.RunRequests(reqs)
			if err != nil {
				b.Fatal(err)
			}
			if res.GCRuns == 0 {
				b.Fatal("hydrated run triggered no GC; the row prices nothing")
			}
		}
	})
}

// BenchmarkSchedulers measures per-scheduler simulation cost on the same
// workload (scheduler algorithmic overhead shows up here).
func BenchmarkSchedulers(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range sprinkler.Schedulers() {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := sprinkler.DefaultConfig()
				cfg.Channels = 4
				cfg.ChipsPerChan = 4
				cfg.BlocksPerPlane = 128
				cfg.Scheduler = kind
				dev, err := sprinkler.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dev.RunRequests(sprinkler.SequentialReads(300, 8)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
