package sprinkler

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Grid declares a sweep as a cross product of axes over one base
// configuration: schedulers × workloads (or arbitrary sources) × the Vary
// axes. Cells() expands it into the concrete cell list a Runner executes,
// with a stable name and a deterministic seed per cell.
//
// Seeds are derived from everything except the scheduler axis, so every
// scheduler replays the identical trace for a given (workload, axis)
// point — differences between scheduler rows are scheduling, not input
// noise — while distinct workloads and axis points get distinct streams.
// Mix Seed to re-roll a whole grid.
//
//	cells := sprinkler.Grid{
//	    Base:       sprinkler.DefaultConfig(),
//	    Schedulers: sprinkler.Schedulers(),
//	    Workloads:  []string{"cfs0", "msnfs1"},
//	    Requests:   3000,
//	    Vary: []sprinkler.Axis{{Name: "queue_depth", Values: []sprinkler.AxisValue{
//	        {Label: "qd=32", Apply: func(c *sprinkler.Config) { c.QueueDepth = 32 }},
//	        {Label: "qd=128", Apply: func(c *sprinkler.Config) { c.QueueDepth = 128 }},
//	    }}},
//	}.Cells()
//	results := sprinkler.Runner{}.Run(ctx, cells)
type Grid struct {
	// Name, when set, prefixes every cell name ("fig15/...").
	Name string

	// Base is the platform every cell starts from. Axes mutate copies.
	Base Config

	// Schedulers is the scheduler axis; empty keeps Base.Scheduler.
	Schedulers []SchedulerKind

	// Workloads names Table 1 synthetic workloads, each generating
	// Requests requests (MaxPages caps request length; 0 = generator
	// default). Workload cells and Sources cells together form the
	// workload axis; at least one of the two must be non-empty.
	Workloads []string
	Requests  int
	MaxPages  int

	// Sources adds custom workload-axis points: each builds its source
	// from the cell's final config and seed (so a source can size itself
	// from the topology the cell landed on).
	Sources []SourceSpec

	// Vary lists the grid's axes (topology, queue depth, fault rate, ...),
	// applied to the config in listed order before the scheduler is set.
	// An axis with no values keeps the base.
	Vary []Axis

	// Precondition fragments every cell's device before its run. An
	// AxisValue's Precondition overrides it for cells on that point
	// (later axes win).
	Precondition *Precondition

	// Snapshot, when non-nil, is a decoded warm-state snapshot every cell
	// hydrates its device from instead of preconditioning, so an
	// aged-drive grid runs at fresh-drive cost. Cell configs must satisfy
	// the snapshot's CompatibleConfig (the scheduler axis sweeps freely),
	// and the grid must not also set Precondition (cells carrying both
	// fail).
	Snapshot *DeviceSnapshot

	// Seed is mixed into every derived cell seed, re-rolling the grid's
	// traces wholesale without renaming cells.
	Seed uint64
}

// SourceSpec is one point of a Grid's workload axis: a label plus a
// factory invoked with the cell's final configuration and seed. New
// composes sources and combinators directly and threads the seed into
// every seeded layer (SubSeed(seed, i) for the i-th child of a Mix or
// Phases), so a point's stream is a pure function of the cell seed.
type SourceSpec struct {
	Label string
	New   func(cfg Config, seed uint64) (Source, error)
}

// Axis is one grid dimension (see Grid.Vary).
type Axis struct {
	// Name keys the axis in Cell.Labels.
	Name   string
	Values []AxisValue
}

// AxisValue is one point of an Axis.
type AxisValue struct {
	// Label names the point in cell names and Cell.Labels.
	Label string
	// Apply mutates the cell's configuration.
	Apply func(*Config)
	// Precondition, when non-nil, replaces the grid-level precondition
	// for cells on this point.
	Precondition *Precondition
}

// axes returns the grid's non-empty axes, in the order they
// cross-product (left = slowest varying).
func (g Grid) axes() []Axis {
	var out []Axis
	for _, ax := range g.Vary {
		// An empty axis means "keep the base", not a zero-way cross
		// product.
		if len(ax.Values) > 0 {
			out = append(out, ax)
		}
	}
	return out
}

// sources expands the Workloads sugar and appends the custom Sources.
func (g Grid) sources() []SourceSpec {
	out := make([]SourceSpec, 0, len(g.Workloads)+len(g.Sources))
	for _, w := range g.Workloads {
		w := w
		requests := g.Requests
		maxPages := g.MaxPages
		out = append(out, SourceSpec{
			Label: w,
			New: func(cfg Config, seed uint64) (Source, error) {
				if requests <= 0 {
					return nil, fmt.Errorf("sprinkler: Grid.Requests must be positive for workload %q", w)
				}
				return cfg.NewWorkloadSource(WorkloadSpec{
					Name: w, Requests: requests, MaxPages: maxPages, Seed: seed,
				})
			},
		})
	}
	return append(out, g.Sources...)
}

// Cells expands the grid into its cross product, scheduler-major: for
// each scheduler, the axes advance odometer-style (first listed axis
// slowest) with the workload axis innermost. The expansion order, names
// and seeds are all deterministic functions of the grid.
func (g Grid) Cells() []Cell {
	scheds := g.Schedulers
	if len(scheds) == 0 {
		scheds = []SchedulerKind{g.Base.Scheduler}
	}
	axes := g.axes()
	sources := g.sources()
	if len(sources) == 0 {
		// A grid with no workload axis expands to nothing — surface the
		// mistake as one failing cell rather than a silently empty sweep.
		return []Cell{{
			Name:   gridLabel(g.Name, "<no sources>"),
			Config: g.Base,
			Source: func(uint64) (Source, error) {
				return nil, fmt.Errorf("sprinkler: Grid has neither Workloads nor Sources")
			},
		}}
	}

	n := len(scheds) * len(sources)
	for _, ax := range axes {
		n *= len(ax.Values)
	}
	cells := make([]Cell, 0, n)

	idx := make([]int, len(axes))
	for _, sk := range scheds {
		for i := range idx {
			idx[i] = 0
		}
		for {
			// One axis combination: apply values to a copy of Base.
			cfg := g.Base
			pre := g.Precondition
			axisParts := make([]string, 0, len(axes))
			for ai, ax := range axes {
				v := ax.Values[idx[ai]]
				if v.Apply != nil {
					v.Apply(&cfg)
				}
				if v.Precondition != nil {
					pre = v.Precondition
				}
				axisParts = append(axisParts, v.Label)
			}
			cfg.Scheduler = sk
			for _, src := range sources {
				src := src
				cfg := cfg
				labels := make(map[string]string, len(axes)+2)
				labels["scheduler"] = string(resolveKind(sk))
				labels["workload"] = src.Label
				for ai, ax := range axes {
					labels[ax.Name] = axisParts[ai]
				}
				parts := make([]string, 0, len(axisParts)+3)
				if g.Name != "" {
					parts = append(parts, g.Name)
				}
				parts = append(parts, string(resolveKind(sk)))
				parts = append(parts, axisParts...)
				parts = append(parts, src.Label)
				key := g.sourceKey(axisParts, src.Label)
				cells = append(cells, Cell{
					Name:         strings.Join(parts, "/"),
					Config:       cfg,
					Seed:         g.cellSeed(key),
					Labels:       labels,
					Precondition: pre,
					Snapshot:     g.Snapshot,
					Source: func(seed uint64) (Source, error) {
						return src.New(cfg, seed)
					},
				})
			}
			// Advance the odometer, rightmost axis fastest.
			ai := len(axes) - 1
			for ; ai >= 0; ai-- {
				idx[ai]++
				if idx[ai] < len(axes[ai].Values) {
					break
				}
				idx[ai] = 0
			}
			if ai < 0 {
				break
			}
		}
	}
	return cells
}

// gridLabel joins a grid name with a suffix, tolerating an empty name.
func gridLabel(name, suffix string) string {
	if name == "" {
		return suffix
	}
	return name + "/" + suffix
}

// sourceKey names the cell's workload coordinates — every axis except the
// scheduler — and is the seed-derivation input, so all schedulers replay
// one trace per point.
func (g Grid) sourceKey(axisParts []string, srcLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid:%s", g.Name)
	for _, p := range axisParts {
		fmt.Fprintf(&b, "|%s", p)
	}
	fmt.Fprintf(&b, "|src:%s", srcLabel)
	return b.String()
}

// cellSeed derives the deterministic per-cell seed from the source key,
// i.e. from every coordinate except the scheduler.
func (g Grid) cellSeed(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	s := h.Sum64()
	if g.Seed != 0 {
		s = (s ^ g.Seed) * 0x2545F4914F6CDD1D
	}
	if s == 0 {
		// Zero means "derive from the cell name" to the Runner; keep the
		// grid's seed explicit.
		s = 1
	}
	return s
}
