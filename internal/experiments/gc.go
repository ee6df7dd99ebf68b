package experiments

import (
	"context"
	"fmt"
	"strings"

	"sprinkler"
	"sprinkler/internal/metrics"
)

// Fig17Point is one (chips, transferKB, scheduler, gc?) bandwidth sample
// of the garbage-collection and readdressing-callback study (§5.9).
type Fig17Point struct {
	Chips       int
	TransferKB  int
	Scheduler   string
	GC          bool
	BandwidthKB float64
	GCRuns      int64
}

// fig17Platform keeps planes small so preconditioning to 95% is fast and
// the measured writes quickly push planes to the GC threshold. Scaled-down
// runs shrink the per-plane capacity further: preconditioning cost is
// linear in physical pages and dominates the figure's runtime.
func fig17Platform(chips int, o Options) sprinkler.Config {
	cfg := Platform(chips)
	cfg.BlocksPerPlane = 24
	cfg.PagesPerBlock = 64
	if o.Scale < 0.5 {
		cfg.BlocksPerPlane = 12
		cfg.PagesPerBlock = 32
	}
	cfg.GCFreeTarget = 3
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	return cfg
}

// RunFig17 measures random-write bandwidth on pristine versus fragmented
// (GC-heavy) devices for VAS, PAS and SPK3. One Grid: scheduler axis ×
// chips axis × a pristine/fragmented axis (the fragmented point attaches
// the §5.9 precondition) × transfer-size source axis, all cells
// concurrent.
func RunFig17(opts Options) ([]Fig17Point, error) {
	opts = opts.Defaults()
	chipCounts := []int{64, 256}
	sizesKB := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	if opts.Scale < 0.5 {
		chipCounts = []int{64}
		sizesKB = []int{4, 16, 64, 256, 1024}
	}
	schedulers := []string{"VAS", "PAS", "SPK3"}
	totalKB := opts.scaled(32*1024, 2*1024)

	gcAxis := sprinkler.Axis{Name: "gc", Values: []sprinkler.AxisValue{
		{Label: "gc=false", Apply: func(c *sprinkler.Config) { c.DisableGC = true }},
		{Label: "gc=true", Precondition: &sprinkler.Precondition{
			FillFrac: 0.95, ChurnFrac: 0.5, Seed: opts.Seed,
		}},
	}}
	chipLabel := func(chips int) string { return fmt.Sprintf("%dc", chips) }
	cells := sprinkler.Grid{
		Name:       "fig17",
		Base:       fig17Platform(chipCounts[0], opts),
		Schedulers: schedulerKinds(schedulers),
		Vary: []sprinkler.Axis{
			platformAxis("chips", chipCounts, chipLabel,
				func(chips int) sprinkler.Config { return fig17Platform(chips, opts) }),
			gcAxis,
		},
		Sources: fixedSources(sizesKB, opts.Seed, true, false, volumeCount(totalKB)),
	}.Cells()

	chips := countByLabel(chipCounts, chipLabel)
	sizes := kbByLabel(sizesKB)
	var points []Fig17Point
	for _, cr := range opts.runner().Run(context.Background(), cells) {
		if cr.Err != nil {
			return nil, cr.Err
		}
		points = append(points, Fig17Point{
			Chips:       chips[cr.Labels["chips"]],
			TransferKB:  sizes[cr.Labels["workload"]],
			Scheduler:   cr.Labels["scheduler"],
			GC:          cr.Labels["gc"] == "gc=true",
			BandwidthKB: cr.Result.BandwidthKBps,
			GCRuns:      cr.Result.GCRuns,
		})
	}
	return points, nil
}

// FormatFig17 renders per-platform bandwidth tables with and without GC.
func FormatFig17(points []Fig17Point) string {
	type key struct {
		chips, kb int
	}
	cells := map[key]map[string]Fig17Point{}
	var chips, sizes []int
	seenC, seenS := map[int]bool{}, map[int]bool{}
	var cols []string
	seenCol := map[string]bool{}
	for _, p := range points {
		k := key{p.Chips, p.TransferKB}
		if cells[k] == nil {
			cells[k] = map[string]Fig17Point{}
		}
		col := p.Scheduler
		if p.GC {
			col += "-GC"
		}
		cells[k][col] = p
		if !seenC[p.Chips] {
			seenC[p.Chips] = true
			chips = append(chips, p.Chips)
		}
		if !seenS[p.TransferKB] {
			seenS[p.TransferKB] = true
			sizes = append(sizes, p.TransferKB)
		}
		if !seenCol[col] {
			seenCol[col] = true
			cols = append(cols, col)
		}
	}
	var b strings.Builder
	for _, c := range chips {
		header := append([]string{"transferKB"}, cols...)
		var rows [][]string
		for _, kb := range sizes {
			row := []string{fmt.Sprint(kb)}
			for _, col := range cols {
				row = append(row, fmtF(cells[key{c, kb}][col].BandwidthKB, 0))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(&b, "Figure 17: write bandwidth (KB/s) with and without GC — %d flash chips\n%s\n",
			c, metrics.Table(header, rows))
	}
	return b.String()
}
