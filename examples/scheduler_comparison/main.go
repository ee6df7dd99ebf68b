// Scheduler comparison: replay one of the paper's data-center workloads
// (Table 1) under all five device-level schedulers and reproduce the
// Figure 10 comparison — bandwidth, IOPS, latency, queue stall — plus the
// idleness and parallelism metrics of Figures 11 and 14.
//
// The five cells run concurrently through the Grid/Runner API; each
// scheduler replays the identical trace, and per-cell seeding makes the
// concurrent results identical to a serial run.
//
// Usage: scheduler_comparison [workload] (default msnfs1)
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"sprinkler"
)

func main() {
	workload := "msnfs1"
	if len(os.Args) > 1 {
		workload = os.Args[1]
	}

	cfg := sprinkler.DefaultConfig()
	cells := sprinkler.Grid{
		Base:       cfg,
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{workload},
		Requests:   2000,
	}.Cells()
	results := sprinkler.Runner{}.Run(context.Background(), cells)

	fmt.Printf("workload %s: 2000 I/Os on a 64-chip SSD, %d cells in parallel\n\n",
		workload, len(cells))
	fmt.Printf("%-6s %10s %8s %10s %8s %8s %8s %8s\n",
		"sched", "MB/s", "IOPS", "lat(ms)", "stall%", "util%", "intra%", "degree")

	var vasBW, vasLat float64
	var spk3BW, spk3Lat float64
	for i, cr := range results {
		if cr.Err != nil {
			log.Fatalf("%s: %v\navailable workloads: %v", cr.Name, cr.Err, sprinkler.Workloads())
		}
		res := cr.Result
		bw := res.BandwidthKBps / 1024
		lat := float64(res.AvgLatencyNS) / 1e6
		switch sprinkler.Schedulers()[i] {
		case sprinkler.VAS:
			vasBW, vasLat = bw, lat
		case sprinkler.SPK3:
			spk3BW, spk3Lat = bw, lat
		}
		fmt.Printf("%-6s %10.1f %8.0f %10.3f %8.1f %8.1f %8.1f %8.2f\n",
			res.Scheduler, bw, res.IOPS, lat,
			100*res.QueueStallFraction, 100*res.ChipUtilization,
			100*res.IntraChipIdleness, res.AvgFLPDegree)
	}

	fmt.Printf("\nSPK3 vs VAS: %.2fx bandwidth, %.0f%% lower latency\n",
		spk3BW/vasBW, 100*(1-spk3Lat/vasLat))
}
