package sprinkler_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sprinkler"
)

// queueDepthAxis sweeps the device queue depth, labelled "qd=N".
func queueDepthAxis(depths ...int) sprinkler.Axis {
	ax := sprinkler.Axis{Name: "queue_depth"}
	for _, d := range depths {
		ax.Values = append(ax.Values, sprinkler.AxisValue{
			Label: fmt.Sprintf("qd=%d", d),
			Apply: func(c *sprinkler.Config) { c.QueueDepth = d },
		})
	}
	return ax
}

// TestGridCrossProduct checks expansion order, naming, labels and seed
// sharing of the declarative grid.
func TestGridCrossProduct(t *testing.T) {
	g := sprinkler.Grid{
		Name:       "t",
		Base:       smallConfig(sprinkler.SPK3),
		Schedulers: []sprinkler.SchedulerKind{sprinkler.VAS, sprinkler.SPK3},
		Workloads:  []string{"cfs0", "msnfs1"},
		Requests:   50,
		Vary:       []sprinkler.Axis{queueDepthAxis(16, 64)},
	}
	cells := g.Cells()
	if len(cells) != 2*2*2 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	if cells[0].Name != "t/VAS/qd=16/cfs0" {
		t.Fatalf("first cell named %q", cells[0].Name)
	}
	seeds := map[string]map[string]uint64{} // point -> scheduler -> seed
	for _, c := range cells {
		if c.Seed == 0 {
			t.Fatalf("cell %q has no explicit seed", c.Name)
		}
		if c.Labels["scheduler"] == "" || c.Labels["workload"] == "" || c.Labels["queue_depth"] == "" {
			t.Fatalf("cell %q labels incomplete: %v", c.Name, c.Labels)
		}
		point := c.Labels["workload"] + "/" + c.Labels["queue_depth"]
		if seeds[point] == nil {
			seeds[point] = map[string]uint64{}
		}
		seeds[point][c.Labels["scheduler"]] = c.Seed
		// The axis must actually have applied to the config.
		want := 16
		if c.Labels["queue_depth"] == "qd=64" {
			want = 64
		}
		if c.Config.QueueDepth != want {
			t.Fatalf("cell %q queue depth %d, label %s", c.Name, c.Config.QueueDepth, c.Labels["queue_depth"])
		}
	}
	if len(seeds) != 4 {
		t.Fatalf("expected 4 grid points, got %d", len(seeds))
	}
	var distinct = map[uint64]bool{}
	for point, bySched := range seeds {
		if len(bySched) != 2 {
			t.Fatalf("point %s missing schedulers: %v", point, bySched)
		}
		if bySched["VAS"] != bySched["SPK3"] {
			t.Fatalf("point %s: schedulers see different seeds %d vs %d", point, bySched["VAS"], bySched["SPK3"])
		}
		distinct[bySched["VAS"]] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("grid points share seeds: %v", distinct)
	}
	// Seed mixing re-rolls every trace without renaming cells.
	g2 := g
	g2.Seed = 99
	cells2 := g2.Cells()
	for i := range cells2 {
		if cells2[i].Name != cells[i].Name {
			t.Fatalf("Seed changed cell names: %q vs %q", cells2[i].Name, cells[i].Name)
		}
		if cells2[i].Seed == cells[i].Seed {
			t.Fatalf("cell %q seed did not re-roll", cells[i].Name)
		}
	}
}

// TestGridCustomAxesAndSources drives Vary axes (with a per-value
// precondition) and SourceSpec points end to end through the Runner.
func TestGridCustomAxesAndSources(t *testing.T) {
	base := smallConfig(sprinkler.SPK3)
	pre := &sprinkler.Precondition{FillFrac: 0.5, ChurnFrac: 0.2, Seed: 3}
	g := sprinkler.Grid{
		Name: "ax",
		Base: base,
		Vary: []sprinkler.Axis{{
			Name: "gc",
			Values: []sprinkler.AxisValue{
				{Label: "pristine", Apply: func(c *sprinkler.Config) { c.DisableGC = true }},
				{Label: "fragmented", Precondition: pre},
			},
		}},
		Sources: []sprinkler.SourceSpec{{
			Label: "seqw",
			New: func(cfg sprinkler.Config, seed uint64) (sprinkler.Source, error) {
				return sprinkler.SliceSource(sprinkler.SequentialWrites(60, 4)), nil
			},
		}},
	}
	cells := g.Cells()
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if cells[0].Precondition != nil {
		t.Fatal("pristine cell inherited a precondition")
	}
	if cells[1].Precondition != pre {
		t.Fatal("fragmented cell lost its axis precondition")
	}
	results := sprinkler.Runner{Workers: 2}.Run(context.Background(), cells)
	for _, cr := range results {
		if cr.Err != nil {
			t.Fatalf("cell %q: %v", cr.Name, cr.Err)
		}
		if cr.Result.IOsCompleted != 60 {
			t.Fatalf("cell %q completed %d/60", cr.Name, cr.Result.IOsCompleted)
		}
		if cr.Labels["gc"] == "" || cr.Labels["workload"] != "seqw" {
			t.Fatalf("cell %q labels wrong: %v", cr.Name, cr.Labels)
		}
	}
	if !strings.HasPrefix(results[0].Name, "ax/SPK3/pristine") {
		t.Fatalf("unexpected first name %q", results[0].Name)
	}
}

// TestGridWorkloadStructureAxis declares workload *structure* — burst duty
// cycle over one base workload — as a grid axis of SourceSpecs composing
// the combinators, and checks the swept structure actually shows in the
// simulated timelines.
func TestGridWorkloadStructureAxis(t *testing.T) {
	// Light arrival-bound load (small reads, 20k req/s -> a 4 ms arrival
	// span) so the burst envelope's 4x time dilation dominates the
	// simulated duration.
	duty := func(label string, offNS int64) sprinkler.SourceSpec {
		return sprinkler.SourceSpec{Label: label, New: func(cfg sprinkler.Config, seed uint64) (sprinkler.Source, error) {
			src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "cfs0", Requests: 80, MaxPages: 4, Seed: seed})
			if err != nil {
				return nil, err
			}
			if src, err = sprinkler.ReadRatio(src, 1, seed); err != nil {
				return nil, err
			}
			src = sprinkler.Poisson(src, 20_000, seed)
			if offNS == 0 {
				return src, nil
			}
			return sprinkler.Burst(src, 200_000, offNS)
		}}
	}
	g := sprinkler.Grid{
		Name:       "structure",
		Base:       smallConfig(sprinkler.SPK3),
		Schedulers: []sprinkler.SchedulerKind{sprinkler.VAS, sprinkler.SPK3},
		Sources:    []sprinkler.SourceSpec{duty("duty=100", 0), duty("duty=25", 600_000)},
	}
	cells := g.Cells()
	if len(cells) != 2*2 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	duration := map[string]map[string]int64{} // workload -> scheduler -> duration
	for _, cr := range (sprinkler.Runner{Workers: 2}).Run(context.Background(), cells) {
		if cr.Err != nil {
			t.Fatalf("cell %q: %v", cr.Name, cr.Err)
		}
		if cr.Result.IOsCompleted != 80 {
			t.Fatalf("cell %q completed %d/80", cr.Name, cr.Result.IOsCompleted)
		}
		if duration[cr.Labels["workload"]] == nil {
			duration[cr.Labels["workload"]] = map[string]int64{}
		}
		duration[cr.Labels["workload"]][cr.Labels["scheduler"]] = cr.Result.DurationNS
	}
	if len(duration) != 2 {
		t.Fatalf("workload axis collapsed: %v", duration)
	}
	// The 25%-duty envelope dilates the same arrival stream 4x: its
	// simulated runs must take longer than the smooth ones.
	for _, s := range []string{"VAS", "SPK3"} {
		if duration["duty=25"][s] <= duration["duty=100"][s] {
			t.Fatalf("%s: bursty run (%d ns) not longer than smooth (%d ns)",
				s, duration["duty=25"][s], duration["duty=100"][s])
		}
	}
}

// TestGridDefaultSchedulerAndEmptyAxis: an unset Base.Scheduler resolves
// to SPK3 in both the cell name and the label, and an empty custom axis
// means "keep the base" (like the built-in knobs), not a zero-way cross
// product.
func TestGridDefaultSchedulerAndEmptyAxis(t *testing.T) {
	base := smallConfig("")
	cells := sprinkler.Grid{
		Base: base,
		Vary: []sprinkler.Axis{{Name: "empty"}},
		Sources: []sprinkler.SourceSpec{{
			Label: "s",
			New: func(cfg sprinkler.Config, seed uint64) (sprinkler.Source, error) {
				return sprinkler.SliceSource(sprinkler.SequentialReads(5, 2)), nil
			},
		}},
	}.Cells()
	if len(cells) != 1 {
		t.Fatalf("expanded %d cells, want 1", len(cells))
	}
	if cells[0].Name != "SPK3/s" {
		t.Fatalf("cell named %q, want SPK3/s", cells[0].Name)
	}
	if cells[0].Labels["scheduler"] != "SPK3" {
		t.Fatalf("scheduler label %q, want resolved SPK3", cells[0].Labels["scheduler"])
	}
}

// TestGridEmptySourcesSurfacesError: a grid with no workload axis must
// fail loudly, not expand to zero cells.
func TestGridEmptySourcesSurfacesError(t *testing.T) {
	cells := sprinkler.Grid{Base: smallConfig(sprinkler.SPK3)}.Cells()
	if len(cells) != 1 {
		t.Fatalf("expanded %d cells, want 1 error cell", len(cells))
	}
	results := sprinkler.Runner{}.Run(context.Background(), cells)
	if results[0].Err == nil {
		t.Fatal("empty grid ran without error")
	}
}

// TestGridWindowedSeries: the windowed series mode keeps only the last N
// points while exact mode keeps all — the long-run-safe Figure 12 path.
func TestGridWindowedSeries(t *testing.T) {
	cfg := smallConfig(sprinkler.PAS)
	cfg.CollectSeries = true
	cfg.SeriesWindow = 8
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.RunRequests(sprinkler.SequentialReads(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 8 {
		t.Fatalf("windowed series kept %d points, want 8", len(res.Series))
	}
	for i, p := range res.Series {
		if want := int64(30 - 8 + 1 + i); p.Index != want {
			t.Fatalf("series[%d].Index = %d, want %d (most recent window, in order)", i, p.Index, want)
		}
	}
}
