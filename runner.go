package sprinkler

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
)

// Cell is one (config, scheduler, workload) point of a sweep. Cells are
// independent: each runs on its own device (checked out of a DeviceArena
// and recycled between cells, or built fresh under Runner.NoReuse — the
// results are byte-identical either way), so a Runner can execute them on
// any number of goroutines with results identical to serial execution.
type Cell struct {
	// Name labels the cell in results ("SPK3/msnfs1"). It also feeds the
	// derived per-cell seed, so give distinct cells distinct names.
	Name string

	// Config is the platform + scheduler under test.
	Config Config

	// Source builds the cell's workload. It is called once, on the
	// worker goroutine, with the cell's deterministic seed — build the
	// source inside so no mutable state is shared across cells.
	Source func(seed uint64) (Source, error)

	// Precondition optionally fragments the device before the run.
	Precondition *Precondition

	// Snapshot, when non-nil, is a decoded warm-state snapshot the cell's
	// device is hydrated from instead of running Precondition, so an
	// aged-drive sweep pays fresh-drive cost per cell. Cells share it
	// read-only. The cell's Config must satisfy the snapshot's
	// CompatibleConfig. Mutually exclusive with Precondition — a cell
	// carrying both fails rather than guessing which warm-up was meant.
	Snapshot *DeviceSnapshot

	// Seed overrides the derived per-cell seed when non-zero. Cells that
	// must share a trace (the same workload under different schedulers)
	// set the same non-zero Seed.
	Seed uint64

	// Labels carries the cell's grid coordinates ("scheduler",
	// "workload", axis names), filled by Grid.Cells and echoed on the
	// CellResult so sweep consumers can index results without parsing
	// names.
	Labels map[string]string
}

// CellResult pairs a cell with its outcome.
type CellResult struct {
	Name   string
	Seed   uint64
	Labels map[string]string
	Result *Result
	Err    error
}

// Runner fans sweep cells across worker goroutines. The zero value uses
// all CPU cores and a private DeviceArena so consecutive cells on one
// topology recycle a device instead of rebuilding it. Every cell builds
// its own workload source from its seed; only devices are recycled.
// Per-cell seeds are deterministic functions of the cell (its Seed, else
// its name and index), and device reuse is behaviour-preserving, so
// results do not depend on scheduling order, worker count, or reuse.
type Runner struct {
	// Workers caps concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	// Arena supplies the devices workers check out per cell. Nil makes
	// Run create a private arena for the call; share one across Runs to
	// recycle devices between sweeps too.
	Arena *DeviceArena

	// NoReuse builds a fresh device for every cell instead of recycling
	// through the arena — the reference path reuse-parity tests and
	// benchmarks compare against.
	NoReuse bool
}

// seedOf derives a cell's seed: the explicit per-cell seed when set,
// otherwise an FNV hash of the cell's name and index.
func seedOf(c Cell, i int) uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", c.Name, i)
	return h.Sum64()
}

// Run executes every cell and returns results in cell order. A cell
// failure is recorded in its CellResult, not returned: one bad cell does
// not sink a thousand-cell sweep. Cancelling ctx abandons unstarted
// cells (their Err is ctx.Err()) and interrupts running ones.
func (r Runner) Run(ctx context.Context, cells []Cell) []CellResult {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	// The arena is shared across workers: a worker finishing a cell
	// checks its drained device back in for whichever worker starts the
	// next cell on that topology. Under NoReuse the nil arena degrades
	// every checkout to a fresh build.
	arena := r.Arena
	if r.NoReuse {
		arena = nil
	} else if arena == nil {
		arena = NewDeviceArena()
	}
	results := make([]CellResult, len(cells))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runCell(ctx, cells[i], i, arena)
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

func (r Runner) runCell(ctx context.Context, c Cell, i int, arena *DeviceArena) CellResult {
	out := CellResult{Name: c.Name, Seed: seedOf(c, i), Labels: c.Labels}
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}
	if c.Source == nil {
		out.Err = fmt.Errorf("sprinkler: cell %q has no Source", c.Name)
		return out
	}
	if c.Snapshot != nil && c.Precondition != nil {
		out.Err = fmt.Errorf("sprinkler: cell %q has both Snapshot and Precondition", c.Name)
		return out
	}
	dev, err := c.Snapshot.checkout(arena, c.Config)
	if err != nil {
		out.Err = fmt.Errorf("sprinkler: cell %q: %w", c.Name, err)
		return out
	}
	if p := c.Precondition; p != nil {
		dev.Precondition(p.FillFrac, p.ChurnFrac, p.Seed)
	}
	src, err := c.Source(out.Seed)
	if err != nil {
		out.Err = fmt.Errorf("sprinkler: cell %q: %w", c.Name, err)
		return out
	}
	res, err := dev.Run(ctx, src)
	if err != nil {
		// The device may hold mid-run state — cancellation, stalls: drop
		// it rather than recycling a non-pristine simulation.
		out.Err = fmt.Errorf("sprinkler: cell %q: %w", c.Name, err)
		return out
	}
	arena.Put(dev)
	out.Result = res
	return out
}
