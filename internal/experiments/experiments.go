// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) on top of the public sprinkler API. Each study is
// declared as a sprinkler.Grid — axes over scheduler, workload, and
// topology knobs, cross-producted into cells with deterministic shared
// seeds — and executed by sprinkler.Runner, which fans the cells across
// CPU cores and recycles devices through a DeviceArena (reuse is
// behaviour-preserving, so concurrent arena-recycled results are
// identical to serial fresh-built ones). Results are indexed back to
// their grid coordinates through CellResult.Labels.
//
// Runners accept an Options scale so the full evaluation can be shrunk for
// tests and benchmarks while keeping every code path exercised.
package experiments

import (
	"context"
	"fmt"
	"math"
	"os"

	"sprinkler"
)

// Options controls experiment scale.
type Options struct {
	// Scale in (0, 1] multiplies instruction counts and sweep densities.
	// 1.0 reproduces the full evaluation; tests use ~0.05.
	Scale float64
	// Chips overrides the platform size for the per-workload evaluation
	// (default 64, the smallest platform of §5.1).
	Chips int
	// Seed perturbs the synthetic traces.
	Seed uint64
	// Workers caps sweep concurrency; <= 0 uses every CPU core.
	Workers int
	// NoReuse builds a fresh device per cell instead of recycling
	// through the runner's DeviceArena (A/B profiling of construction
	// cost; results are identical either way).
	NoReuse bool
	// Faults shapes the fault-injection study's base spec (retry ladder,
	// rewrite bound, spare fraction, seed); zero fields take the study
	// defaults. Only RunFaultStudy consults it — the paper's figures stay
	// fault-free.
	Faults sprinkler.FaultSpec
	// LoadState, when set, hydrates every cell of the 5-scheduler ×
	// 16-workload evaluation from this warm-state snapshot file (written
	// by SaveWarmState) instead of running on a fresh drive, so an
	// aged-drive evaluation pays fresh-drive cost. The snapshot's platform
	// must match the evaluation's (the Chips flag included);
	// scheduler and workload axes sweep freely over the one warm state.
	LoadState string
}

// Defaults fills unset options.
func (o Options) Defaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Chips <= 0 {
		o.Chips = 64
	}
	return o
}

// scaled returns max(min, round(n*scale)).
func (o Options) scaled(n int, min int) int {
	v := int(math.Round(float64(n) * o.Scale))
	if v < min {
		v = min
	}
	return v
}

// runner builds the sweep runner for these options.
func (o Options) runner() sprinkler.Runner {
	return sprinkler.Runner{Workers: o.Workers, NoReuse: o.NoReuse}
}

// SchedulerNames lists the evaluated schedulers in the paper's order.
var SchedulerNames = []string{"VAS", "PAS", "SPK1", "SPK2", "SPK3"}

// schedulerKinds converts names to the public axis values.
func schedulerKinds(names []string) []sprinkler.SchedulerKind {
	out := make([]sprinkler.SchedulerKind, len(names))
	for i, n := range names {
		out[i] = sprinkler.SchedulerKind(n)
	}
	return out
}

// Platform builds the §5.1 SSD configuration for a total chip count,
// spreading chips over channels the way the paper's platforms do
// (64 chips = 8 channels × 8; 1024 chips = 32 × 32).
func Platform(chips int) sprinkler.Config {
	return sprinkler.Platform(chips)
}

// Evaluation holds the 5-scheduler × 16-workload sweep behind Figures 6,
// 10, 11, 13 and 14.
type Evaluation struct {
	Workloads []string
	// Results[scheduler][workload]
	Results map[string]map[string]*sprinkler.Result
}

// RunEvaluation executes the sweep once — all cells concurrently, devices
// recycled per topology — and the per-figure formatters slice it. The
// grid derives one seed per workload (the scheduler axis is excluded from
// seed derivation), so every scheduler replays the identical trace.
func RunEvaluation(opts Options) (*Evaluation, error) {
	opts = opts.Defaults()
	workloads := sprinkler.Workloads()
	grid := sprinkler.Grid{
		Base:       Platform(opts.Chips),
		Schedulers: schedulerKinds(SchedulerNames),
		Workloads:  workloads,
		Requests:   opts.scaled(3000, 120),
		MaxPages:   256, // cap at 512 KB per request, §2.1's "several bytes to MB"
		Seed:       opts.Seed,
	}
	runner := opts.runner()
	if opts.LoadState != "" {
		snap, err := readWarmState(opts.LoadState)
		if err != nil {
			return nil, err
		}
		if !snap.CompatibleConfig(grid.Base) {
			return nil, fmt.Errorf("experiments: warm state %s was captured on a different platform than the evaluation's (re-save it with the same -chips)", opts.LoadState)
		}
		arena := sprinkler.NewDeviceArena()
		arena.RegisterSnapshot("warm", snap)
		runner.Arena = arena
		grid.Snapshot = "warm"
	}
	cells := grid.Cells()

	ev := &Evaluation{Workloads: workloads, Results: make(map[string]map[string]*sprinkler.Result)}
	for _, name := range SchedulerNames {
		ev.Results[name] = make(map[string]*sprinkler.Result)
	}
	for _, cr := range runner.Run(context.Background(), cells) {
		if cr.Err != nil {
			return nil, cr.Err
		}
		ev.Results[cr.Labels["scheduler"]][cr.Labels["workload"]] = cr.Result
	}
	return ev, nil
}

// SaveWarmState preconditions the evaluation platform to GC steady state
// (the §5.9 parameters: fill 95%, churn 50%) and writes the device's warm
// state to path, so later evaluations with Options.LoadState hydrate from
// it instead of replaying the warm-up per cell.
func SaveWarmState(opts Options, path string) error {
	opts = opts.Defaults()
	dev, err := sprinkler.New(Platform(opts.Chips))
	if err != nil {
		return err
	}
	dev.Precondition(0.95, 0.5, opts.Seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = dev.Checkpoint(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readWarmState decodes a snapshot file written by SaveWarmState.
func readWarmState(path string) (*sprinkler.DeviceSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sprinkler.ReadSnapshot(f)
}

// fmtF renders a float with the given decimals.
func fmtF(v float64, dec int) string { return fmt.Sprintf("%.*f", dec, v) }
