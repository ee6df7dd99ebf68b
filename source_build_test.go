package sprinkler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"sprinkler"
)

// drainSource collects up to max requests from a source.
func drainSource(t *testing.T, src sprinkler.Source, max int) []sprinkler.Request {
	t.Helper()
	var out []sprinkler.Request
	for len(out) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// sourceCase is one built-in source or combinator as a seeded builder.
// seeded reports whether the seed shapes the stream: a CSV trace, a slice
// and a sequential fixed-size stream replay the same requests whatever
// seed they are built with.
type sourceCase struct {
	name   string
	seeded bool
	build  func(seed uint64) (sprinkler.Source, error)
}

// sourceCases enumerates every built-in source and combinator, so the
// build-determinism test can treat them uniformly. Bounded shapes keep
// the drains fast; the deep case stacks combinators five levels to
// exercise seed propagation through a whole tree.
func sourceCases(cfg sprinkler.Config, csv []byte) []sourceCase {
	span := cfg.TotalPages() * 9 / 10
	table := func(name string, n int, seed uint64) (sprinkler.Source, error) {
		return cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: name, Requests: n, Seed: seed})
	}
	return []sourceCase{
		{"workload-stream", true, func(seed uint64) (sprinkler.Source, error) {
			return table("msnfs1", 150, seed)
		}},
		{"fixed-random", true, func(seed uint64) (sprinkler.Source, error) {
			return cfg.NewFixedSource(sprinkler.FixedSpec{Requests: 150, Pages: 4, Write: true, Seed: seed})
		}},
		{"fixed-sequential", false, func(seed uint64) (sprinkler.Source, error) {
			return cfg.NewFixedSource(sprinkler.FixedSpec{Requests: 150, Pages: 8, Sequential: true, Seed: seed})
		}},
		{"csv", false, func(seed uint64) (sprinkler.Source, error) {
			return sprinkler.NewCSVSource(bytes.NewReader(csv)), nil
		}},
		{"slice", false, func(seed uint64) (sprinkler.Source, error) {
			return sprinkler.SliceSource(sprinkler.SequentialReads(100, 4)), nil
		}},
		{"limit", true, func(seed uint64) (sprinkler.Source, error) {
			src, err := table("hm0", 0, seed)
			if err != nil {
				return nil, err
			}
			return sprinkler.Limit(src, 120), nil
		}},
		{"poisson", true, func(seed uint64) (sprinkler.Source, error) {
			src, err := table("cfs0", 150, seed)
			if err != nil {
				return nil, err
			}
			return sprinkler.Poisson(src, 250_000, seed), nil
		}},
		{"burst", true, func(seed uint64) (sprinkler.Source, error) {
			src, err := table("cfs3", 150, seed)
			if err != nil {
				return nil, err
			}
			return sprinkler.Burst(src, 1_000_000, 3_000_000)
		}},
		{"zipf", true, func(seed uint64) (sprinkler.Source, error) {
			src, err := table("hm1", 150, seed)
			if err != nil {
				return nil, err
			}
			return sprinkler.Zipf(src, 0.99, span, seed)
		}},
		{"read-ratio", true, func(seed uint64) (sprinkler.Source, error) {
			src, err := table("proj4", 150, seed)
			if err != nil {
				return nil, err
			}
			return sprinkler.ReadRatio(src, 0.7, seed)
		}},
		{"resize", true, func(seed uint64) (sprinkler.Source, error) {
			src, err := table("msnfs1", 150, seed)
			if err != nil {
				return nil, err
			}
			return sprinkler.Resize(src, 2, 16, span, seed)
		}},
		{"mix", true, func(seed uint64) (sprinkler.Source, error) {
			a, err := table("msnfs1", 0, sprinkler.SubSeed(seed, 0))
			if err != nil {
				return nil, err
			}
			b, err := table("cfs0", 0, sprinkler.SubSeed(seed, 1))
			if err != nil {
				return nil, err
			}
			m, err := sprinkler.Mix(seed,
				sprinkler.Weighted{Source: a, Weight: 3},
				sprinkler.Weighted{Source: b, Weight: 1})
			if err != nil {
				return nil, err
			}
			return sprinkler.Limit(m, 150), nil
		}},
		{"phases", true, func(seed uint64) (sprinkler.Source, error) {
			a, err := table("hm0", 0, sprinkler.SubSeed(seed, 0))
			if err != nil {
				return nil, err
			}
			b, err := table("proj0", 80, sprinkler.SubSeed(seed, 1))
			if err != nil {
				return nil, err
			}
			return sprinkler.Phases(
				sprinkler.Phase{Source: a, Requests: 60},
				sprinkler.Phase{Source: b, DurationNS: 2_000_000},
			)
		}},
		{"deep-composition", true, func(seed uint64) (sprinkler.Source, error) {
			base, err := table("msnfs2", 0, seed)
			if err != nil {
				return nil, err
			}
			z, err := sprinkler.Zipf(base, 0.8, span, seed)
			if err != nil {
				return nil, err
			}
			rr, err := sprinkler.ReadRatio(z, 0.5, seed)
			if err != nil {
				return nil, err
			}
			bu, err := sprinkler.Burst(sprinkler.Poisson(rr, 100_000, seed), 500_000, 1_500_000)
			if err != nil {
				return nil, err
			}
			return sprinkler.Limit(bu, 150), nil
		}},
	}
}

// csvFixture renders a short generated trace in the CSV format, the
// content behind the "csv" source case.
func csvFixture(t *testing.T, cfg sprinkler.Config) []byte {
	t.Helper()
	reqs, err := cfg.GenerateWorkload("cfs0", 120, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sprinkler.WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameStream reports the first index where two request streams differ,
// or -1 when they are identical.
func sameStream(a, b []sprinkler.Request) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// TestSourceBuildDeterminism is the seed contract of every built-in
// source and combinator, randomized: two fresh builds with the same seed
// emit the identical stream, and a build with a different seed changes
// the stream of every seeded source (and leaves the unseeded ones alone).
// This is what lets every scheduler of a grid replay one trace per cell
// seed.
func TestSourceBuildDeterminism(t *testing.T) {
	cfg := smallConfig(sprinkler.SPK3)
	csv := csvFixture(t, cfg)
	rng := rand.New(rand.NewSource(99))
	for _, tc := range sourceCases(cfg, csv) {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				seedA, seedB := rng.Uint64(), rng.Uint64()
				drain := func(seed uint64) []sprinkler.Request {
					src, err := tc.build(seed)
					if err != nil {
						t.Fatal(err)
					}
					return drainSource(t, src, 200)
				}
				first := drain(seedA)
				if len(first) == 0 {
					t.Fatal("source emitted nothing")
				}
				if i := sameStream(first, drain(seedA)); i >= 0 {
					t.Fatalf("round %d: two builds with seed %d diverge at request %d", round, seedA, i)
				}
				other := sameStream(first, drain(seedB))
				if tc.seeded && other < 0 {
					t.Fatalf("round %d: seeds %d and %d built the identical stream", round, seedA, seedB)
				}
				if !tc.seeded && other >= 0 {
					t.Fatalf("round %d: unseeded source changed with the seed at request %d", round, other)
				}
			}
		})
	}
}

// structuredGrid builds a grid whose workload axis is pure structure:
// combinators composed over one base workload, swept alongside a plain
// Table 1 workload, across every scheduler.
func structuredGrid(seed uint64) sprinkler.Grid {
	over := func(label string, fn func(src sprinkler.Source, cfg sprinkler.Config, seed uint64) (sprinkler.Source, error)) sprinkler.SourceSpec {
		return sprinkler.SourceSpec{Label: label, New: func(cfg sprinkler.Config, seed uint64) (sprinkler.Source, error) {
			src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "msnfs1", Requests: 90, MaxPages: 32, Seed: seed})
			if err != nil {
				return nil, err
			}
			return fn(src, cfg, seed)
		}}
	}
	mix := sprinkler.SourceSpec{Label: "mix", New: func(cfg sprinkler.Config, seed uint64) (sprinkler.Source, error) {
		weights := []float64{3, 1}
		var items []sprinkler.Weighted
		for i, name := range []string{"msnfs1", "hm0"} {
			src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: name, Seed: sprinkler.SubSeed(seed, i)})
			if err != nil {
				return nil, err
			}
			items = append(items, sprinkler.Weighted{Source: src, Weight: weights[i]})
		}
		src, err := sprinkler.Mix(seed, items...)
		if err != nil {
			return nil, err
		}
		return sprinkler.Limit(src, 90), nil
	}}
	return sprinkler.Grid{
		Name:       "structured",
		Base:       smallConfig(sprinkler.SPK3),
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{"cfs0"},
		Requests:   90,
		Sources: []sprinkler.SourceSpec{
			over("burst", func(src sprinkler.Source, _ sprinkler.Config, _ uint64) (sprinkler.Source, error) {
				return sprinkler.Burst(src, 1_000_000, 3_000_000)
			}),
			over("zipf", func(src sprinkler.Source, cfg sprinkler.Config, seed uint64) (sprinkler.Source, error) {
				return sprinkler.Zipf(src, 0.99, cfg.LogicalSpan(), seed)
			}),
			over("read", func(src sprinkler.Source, _ sprinkler.Config, seed uint64) (sprinkler.Source, error) {
				return sprinkler.ReadRatio(src, 0.65, seed)
			}),
			mix,
		},
		Seed: seed,
	}
}

// TestRecycledDevicesDoNotLeakAcrossCells: results rendered from earlier
// cells must stay bit-stable while later cells run on the recycled
// devices and their recycled request objects — nothing a device or its
// I/O free list hands to a later cell may alias an earlier cell's Result.
func TestRecycledDevicesDoNotLeakAcrossCells(t *testing.T) {
	grid := structuredGrid(5)
	arena := sprinkler.NewDeviceArena()
	runner := sprinkler.Runner{Workers: 1, Arena: arena}

	first := runner.Run(context.Background(), grid.Cells())
	snapshots := make(map[string]string, len(first))
	for _, cr := range first {
		if cr.Err != nil {
			t.Fatalf("cell %q failed: %v", cr.Name, cr.Err)
		}
		b, _ := json.Marshal(cr.Result)
		snapshots[cr.Name] = string(b)
	}

	// Re-run the whole grid on the same arena: every device and I/O free
	// list from the first pass is recycled under the first pass's
	// still-live Results.
	for _, cr := range runner.Run(context.Background(), grid.Cells()) {
		if cr.Err != nil {
			t.Fatalf("second pass cell %q failed: %v", cr.Name, cr.Err)
		}
	}
	for _, cr := range first {
		b, _ := json.Marshal(cr.Result)
		if string(b) != snapshots[cr.Name] {
			t.Fatalf("cell %q's Result mutated after device reuse:\nbefore: %s\nafter:  %s",
				cr.Name, snapshots[cr.Name], b)
		}
	}
	// One device per topology: the pool holds a recycled device, not one
	// per cell.
	if n := arena.Size(); n != 1 {
		t.Fatalf("arena pooled %d devices, want 1", n)
	}
}

// TestGridCellSeedSharedAcrossSchedulers: a grid's cell seed is a stable
// function of the grid, and every scheduler on one workload point shares
// it, so the scheduler rows replay one trace.
func TestGridCellSeedSharedAcrossSchedulers(t *testing.T) {
	g := sprinkler.Grid{Name: "same", Base: smallConfig(sprinkler.SPK3), Workloads: []string{"cfs0"}, Requests: 40}
	a := g.Cells()
	if again := g.Cells(); again[0].Seed != a[0].Seed {
		t.Fatal("cell seed not deterministic")
	}
	g.Schedulers = sprinkler.Schedulers()
	cells := g.Cells()
	if len(cells) != len(sprinkler.Schedulers()) {
		t.Fatalf("expanded %d cells, want one per scheduler", len(cells))
	}
	for _, c := range cells {
		if c.Seed != a[0].Seed {
			t.Fatalf("cell %q has seed %d, want the shared %d", c.Name, c.Seed, a[0].Seed)
		}
	}
}
