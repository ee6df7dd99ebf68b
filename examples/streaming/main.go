// Streaming: drive one million requests through Device.Run without ever
// materializing the workload. The source chain is
//
//	infinite Table 1 generator -> Poisson open-loop arrivals -> Limit(n)
//
// and the device pulls it one request ahead of the simulation clock and
// at most one queue depth ahead of admission, so the workload itself
// costs O(1) memory no matter how large -n gets or how far the arrival
// rate outruns the device (the FTL's mapping table still grows with the
// *address space* the workload touches, as a real SSD's DRAM map would). Ctrl-C cancels the
// run and still prints the measurements accumulated so far.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"sprinkler"
)

func main() {
	n := flag.Int64("n", 1_000_000, "requests to stream")
	rate := flag.Float64("rate", 200_000, "open-loop arrival rate (requests/s)")
	workload := flag.String("workload", "msnfs1", "Table 1 workload to generate")
	chips := flag.Int("chips", 64, "platform chip count")
	seed := flag.Uint64("seed", 1, "generator seed")
	flag.Parse()

	cfg := sprinkler.Platform(*chips)
	cfg.Scheduler = sprinkler.SPK3

	// An unbounded generator (Requests: 0) wrapped into an open-loop
	// Poisson arrival process, capped at n requests.
	gen, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{
		Name: *workload, Requests: 0, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	src := sprinkler.Limit(sprinkler.Poisson(gen, *rate, *seed), *n)

	dev, err := sprinkler.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := dev.Run(ctx, src)
	wall := time.Since(start)
	runtime.GC() // measure live heap, not floating garbage
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	if err != nil && res == nil {
		log.Fatal(err)
	}
	if err != nil {
		fmt.Printf("cancelled: %v (partial results below)\n\n", err)
	}

	fmt.Printf("streamed:      %d I/Os (%d MB) in %.1fs wall\n",
		res.IOsCompleted, (res.BytesRead+res.BytesWritten)>>20, wall.Seconds())
	fmt.Printf("simulated:     %.3f s of device time\n", float64(res.DurationNS)/1e9)
	fmt.Printf("bandwidth:     %.1f MB/s simulated, %.0f I/Os per wall-second\n",
		res.BandwidthKBps/1024, float64(res.IOsCompleted)/wall.Seconds())
	fmt.Printf("avg latency:   %.3f ms (p99 %.3f ms)\n",
		float64(res.AvgLatencyNS)/1e6, float64(res.P99LatencyNS)/1e6)
	fmt.Printf("utilization:   %.1f%% of %d chips\n", 100*res.ChipUtilization, dev.NumChips())
	fmt.Printf("heap in use:   %.1f MB after run (%.1f MB before) — the request slice was never built\n",
		float64(m1.HeapInuse)/(1<<20), float64(m0.HeapInuse)/(1<<20))
}
