package experiments

import (
	"context"
	"fmt"
	"strings"

	"sprinkler"
	"sprinkler/internal/metrics"
)

// Fig1Point is one (dies, transferKB) sample of the Figure 1 sensitivity
// study: read bandwidth, chip utilization and memory-level idleness on a
// conventional (VAS) controller.
type Fig1Point struct {
	Dies        int
	TransferKB  int
	BandwidthMB float64
	Utilization float64 // 0..1
	Idleness    float64 // 0..1 (memory-level: idle die/plane share)
}

// fig1Platform shrinks per-plane block counts as the platform grows so the
// 32768-die point stays within memory; scheduling behaviour only depends
// on the chip/die/plane topology.
func fig1Platform(chips int) sprinkler.Config {
	cfg := sprinkler.Platform(chips)
	switch {
	case chips >= 4096:
		cfg.BlocksPerPlane = 8
	case chips >= 512:
		cfg.BlocksPerPlane = 32
	default:
		cfg.BlocksPerPlane = 128
	}
	cfg.Scheduler = sprinkler.VAS
	return cfg
}

// fixedSources builds the transfer-size axis of a sensitivity sweep: one
// SourceSpec per size, each sizing its page count from the cell's final
// platform and its request count from the study's volume rule. The seed
// is per-size, shared across every scheduler and platform point so those
// axes compare on identical workloads.
func fixedSources(sizesKB []int, seed uint64, write, sequential bool, countFor func(kb int) int) []sprinkler.SourceSpec {
	var out []sprinkler.SourceSpec
	for _, kb := range sizesKB {
		kb := kb
		out = append(out, sprinkler.SourceSpec{
			Label: fmt.Sprintf("%dKB", kb),
			New: func(cfg sprinkler.Config, _ uint64) (sprinkler.Source, error) {
				pages := kb * 1024 / cfg.PageSize
				if pages < 1 {
					pages = 1
				}
				return cfg.NewFixedSource(sprinkler.FixedSpec{
					Requests:   countFor(kb),
					Pages:      pages,
					Write:      write,
					Sequential: sequential,
					Seed:       seed + uint64(kb),
				})
			},
		})
	}
	return out
}

// platformAxis builds a custom axis whose points replace the whole
// platform configuration (chip count plus whatever per-plane shrinkage
// the study needs).
func platformAxis(name string, counts []int, label func(int) string, build func(int) sprinkler.Config) sprinkler.Axis {
	ax := sprinkler.Axis{Name: name}
	for _, n := range counts {
		n := n
		ax.Values = append(ax.Values, sprinkler.AxisValue{
			Label: label(n),
			Apply: func(c *sprinkler.Config) { *c = build(n) },
		})
	}
	return ax
}

// kbByLabel inverts fixedSources' size labels, so sweep results map back
// to their transfer size through CellResult.Labels instead of positional
// coupling to the grid's expansion order.
func kbByLabel(sizesKB []int) map[string]int {
	m := make(map[string]int, len(sizesKB))
	for _, kb := range sizesKB {
		m[fmt.Sprintf("%dKB", kb)] = kb
	}
	return m
}

// countByLabel inverts a platform axis's labels the same way.
func countByLabel(counts []int, label func(int) string) map[string]int {
	m := make(map[string]int, len(counts))
	for _, n := range counts {
		m[label(n)] = n
	}
	return m
}

// volumeCount is the shared workload-volume rule of the sensitivity
// sweeps: a fixed total data volume divided by the transfer size, floored
// so tiny scales still exercise scheduling.
func volumeCount(totalKB int) func(kb int) int {
	return func(kb int) int {
		count := totalKB / kb
		if count < 8 {
			count = 8
		}
		return count
	}
}

// RunFig1 sweeps the die count from 2 to 32768 for transfer sizes 4-128 KB,
// reproducing the performance-stagnation observation (Figures 1a and 1b).
// The sweep is one Grid — a dies axis crossed with a transfer-size source
// axis on a VAS base — and every cell runs concurrently, cells sharing a
// platform recycling one device through the runner's arena.
func RunFig1(opts Options) ([]Fig1Point, error) {
	opts = opts.Defaults()
	dieCounts := []int{2, 8, 32, 128, 512, 2048, 8192, 32768}
	if opts.Scale < 0.5 {
		dieCounts = []int{2, 8, 32, 128, 512}
	}
	sizesKB := []int{4, 8, 16, 32, 64, 128}
	count := opts.scaled(512, 64)

	dieLabel := func(dies int) string { return fmt.Sprintf("%dd", dies) }
	cells := sprinkler.Grid{
		Name: "fig1",
		Base: fig1Platform(1),
		Vary: []sprinkler.Axis{platformAxis("dies", dieCounts, dieLabel,
			func(dies int) sprinkler.Config {
				chips := dies / 2
				if chips < 1 {
					chips = 1
				}
				return fig1Platform(chips)
			})},
		Sources: fixedSources(sizesKB, opts.Seed, false, true, func(int) int { return count }),
	}.Cells()

	dies := countByLabel(dieCounts, dieLabel)
	sizes := kbByLabel(sizesKB)
	var points []Fig1Point
	for _, cr := range opts.runner().Run(context.Background(), cells) {
		if cr.Err != nil {
			return nil, cr.Err
		}
		points = append(points, Fig1Point{
			Dies:        dies[cr.Labels["dies"]],
			TransferKB:  sizes[cr.Labels["workload"]],
			BandwidthMB: cr.Result.BandwidthKBps / 1024,
			Utilization: cr.Result.ChipUtilization,
			Idleness:    cr.Result.MemoryLevelIdleness,
		})
	}
	return points, nil
}

// FormatFig1 renders the sweep as the two panels of Figure 1.
func FormatFig1(points []Fig1Point) string {
	bySize := map[int]map[int]Fig1Point{}
	var dies []int
	seenDies := map[int]bool{}
	var sizes []int
	seenSizes := map[int]bool{}
	for _, p := range points {
		if bySize[p.TransferKB] == nil {
			bySize[p.TransferKB] = map[int]Fig1Point{}
		}
		bySize[p.TransferKB][p.Dies] = p
		if !seenDies[p.Dies] {
			seenDies[p.Dies] = true
			dies = append(dies, p.Dies)
		}
		if !seenSizes[p.TransferKB] {
			seenSizes[p.TransferKB] = true
			sizes = append(sizes, p.TransferKB)
		}
	}
	var b strings.Builder
	header := []string{"dies"}
	for _, kb := range sizes {
		header = append(header, fmt.Sprintf("%dKB", kb))
	}
	var bwRows, utilRows, idleRows [][]string
	for _, d := range dies {
		bw := []string{fmt.Sprint(d)}
		ut := []string{fmt.Sprint(d)}
		id := []string{fmt.Sprint(d)}
		for _, kb := range sizes {
			p := bySize[kb][d]
			bw = append(bw, fmtF(p.BandwidthMB, 1))
			ut = append(ut, fmtF(100*p.Utilization, 1))
			id = append(id, fmtF(100*p.Idleness, 1))
		}
		bwRows = append(bwRows, bw)
		utilRows = append(utilRows, ut)
		idleRows = append(idleRows, id)
	}
	b.WriteString("Figure 1a: read bandwidth (MB/s) vs number of flash dies\n")
	b.WriteString(metrics.Table(header, bwRows))
	b.WriteString("\nFigure 1b: chip utilization (%) vs number of flash dies\n")
	b.WriteString(metrics.Table(header, utilRows))
	b.WriteString("\nFigure 1b: memory-level idleness (%) vs number of flash dies\n")
	b.WriteString(metrics.Table(header, idleRows))
	return b.String()
}

// RunFig12 replays the first part of msnfs1 with series collection and
// renders the VAS vs PAS and VAS vs SPK3 latency time series (§5.4).
func RunFig12(opts Options) (string, error) {
	opts = opts.Defaults()
	cfg := sprinkler.Platform(opts.Chips)
	cfg.CollectSeries = true
	n := opts.scaled(3000, 150)

	cells := sprinkler.Grid{
		Name:       "fig12",
		Base:       cfg,
		Schedulers: schedulerKinds([]string{"VAS", "PAS", "SPK3"}),
		Workloads:  []string{"msnfs1"},
		Requests:   n,
		Seed:       opts.Seed,
	}.Cells()
	series := map[string][]sprinkler.SeriesPoint{}
	for _, cr := range opts.runner().Run(context.Background(), cells) {
		if cr.Err != nil {
			return "", cr.Err
		}
		series[cr.Labels["scheduler"]] = cr.Result.Series
	}

	// Sample every k-th I/O to keep the table readable.
	k := len(series["VAS"]) / 30
	if k < 1 {
		k = 1
	}
	header := []string{"io#", "VAS(ms)", "PAS(ms)", "SPK3(ms)"}
	var rows [][]string
	var sumVAS, sumPAS, sumSPK3 float64
	for i := 0; i < len(series["VAS"]); i++ {
		v := float64(series["VAS"][i].LatencyNS) / 1e6
		p := float64(series["PAS"][i].LatencyNS) / 1e6
		s := float64(series["SPK3"][i].LatencyNS) / 1e6
		sumVAS += v
		sumPAS += p
		sumSPK3 += s
		if i%k == 0 {
			rows = append(rows, []string{
				fmt.Sprint(i), fmtF(v, 3), fmtF(p, 3), fmtF(s, 3),
			})
		}
	}
	n64 := float64(len(series["VAS"]))
	tail := fmt.Sprintf("\nmeans: VAS=%.3fms PAS=%.3fms SPK3=%.3fms (SPK3 %.0f%% below VAS, %.0f%% below PAS; paper: 80%% and 64%%)\n",
		sumVAS/n64, sumPAS/n64, sumSPK3/n64,
		100*(1-sumSPK3/sumVAS), 100*(1-sumSPK3/sumPAS))
	return "Figure 12: msnfs1 latency time series\n" + metrics.Table(header, rows) + tail, nil
}

// Fig15Point is one (chips, transferKB, scheduler) utilization sample.
type Fig15Point struct {
	Chips       int
	TransferKB  int
	Scheduler   string
	Utilization float64
	Txns        int64
	BandwidthKB float64
}

// RunFig15 sweeps transfer sizes 4 KB-4 MB on 64/256/1024-chip platforms
// for VAS, SPK1, SPK2 and SPK3 (chip utilization, Figure 15; the same runs
// yield the transaction counts of Figure 16 and feed Figure 17's pristine
// baseline). One Grid: scheduler axis × chips axis × transfer-size source
// axis; seeds are per-(chips, size) point, so every scheduler replays the
// identical random workload. All cells run concurrently.
func RunFig15(opts Options) ([]Fig15Point, error) {
	opts = opts.Defaults()
	chipCounts := []int{64, 256, 1024}
	sizesKB := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	if opts.Scale < 0.5 {
		chipCounts = []int{64, 256}
		sizesKB = []int{4, 16, 64, 256, 1024}
	}
	schedulers := []string{"VAS", "SPK1", "SPK2", "SPK3"}
	// Fixed total data volume per point so the workload is comparable
	// across transfer sizes.
	totalKB := opts.scaled(64*1024, 4*1024)

	chipLabel := func(chips int) string { return fmt.Sprintf("%dc", chips) }
	cells := sprinkler.Grid{
		Name:       "fig15",
		Base:       sprinkler.Platform(chipCounts[0]),
		Schedulers: schedulerKinds(schedulers),
		Vary:       []sprinkler.Axis{platformAxis("chips", chipCounts, chipLabel, sprinkler.Platform)},
		Sources:    fixedSources(sizesKB, opts.Seed, false, false, volumeCount(totalKB)),
	}.Cells()

	chips := countByLabel(chipCounts, chipLabel)
	sizes := kbByLabel(sizesKB)
	var points []Fig15Point
	for _, cr := range opts.runner().Run(context.Background(), cells) {
		if cr.Err != nil {
			return nil, cr.Err
		}
		points = append(points, Fig15Point{
			Chips:       chips[cr.Labels["chips"]],
			TransferKB:  sizes[cr.Labels["workload"]],
			Scheduler:   cr.Labels["scheduler"],
			Utilization: cr.Result.ChipUtilization,
			Txns:        cr.Result.Transactions,
			BandwidthKB: cr.Result.BandwidthKBps,
		})
	}
	return points, nil
}

// FormatFig15 renders per-platform utilization tables.
func FormatFig15(points []Fig15Point) string {
	return formatSweep(points, "Figure 15: chip utilization (%)", func(p Fig15Point) string {
		return fmtF(100*p.Utilization, 1)
	})
}

// FormatFig16 renders per-platform transaction-count tables (§5.8).
func FormatFig16(points []Fig15Point) string {
	var filtered []Fig15Point
	for _, p := range points {
		if p.Chips == 64 || p.Chips == 1024 {
			filtered = append(filtered, p)
		}
	}
	if len(filtered) == 0 {
		filtered = points
	}
	return formatSweep(filtered, "Figure 16: number of flash transactions", func(p Fig15Point) string {
		return fmt.Sprint(p.Txns)
	})
}

func formatSweep(points []Fig15Point, title string, cell func(Fig15Point) string) string {
	byChip := map[int]map[int]map[string]Fig15Point{}
	var chips, sizes []int
	var scheds []string
	seenC, seenS, seenX := map[int]bool{}, map[int]bool{}, map[string]bool{}
	for _, p := range points {
		if byChip[p.Chips] == nil {
			byChip[p.Chips] = map[int]map[string]Fig15Point{}
		}
		if byChip[p.Chips][p.TransferKB] == nil {
			byChip[p.Chips][p.TransferKB] = map[string]Fig15Point{}
		}
		byChip[p.Chips][p.TransferKB][p.Scheduler] = p
		if !seenC[p.Chips] {
			seenC[p.Chips] = true
			chips = append(chips, p.Chips)
		}
		if !seenS[p.TransferKB] {
			seenS[p.TransferKB] = true
			sizes = append(sizes, p.TransferKB)
		}
		if !seenX[p.Scheduler] {
			seenX[p.Scheduler] = true
			scheds = append(scheds, p.Scheduler)
		}
	}
	var b strings.Builder
	for _, c := range chips {
		header := append([]string{"transferKB"}, scheds...)
		var rows [][]string
		for _, kb := range sizes {
			row := []string{fmt.Sprint(kb)}
			for _, s := range scheds {
				row = append(row, cell(byChip[c][kb][s]))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(&b, "%s — %d flash chips\n%s\n", title, c, metrics.Table(header, rows))
	}
	return b.String()
}
