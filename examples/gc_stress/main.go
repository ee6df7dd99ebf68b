// GC stress: reproduce the §5.9 study — random-write bandwidth on a
// pristine drive versus a fragmented drive where garbage collection and
// live-data migration run underneath the workload. Sprinkler's
// readdressing callback keeps its scheduling decisions valid across
// migrations; VAS has no such callback.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"sprinkler"
)

func main() {
	// A small drive so preconditioning to 95% is quick and writes push
	// planes to the GC threshold immediately.
	base := sprinkler.DefaultConfig()
	base.Channels = 2
	base.ChipsPerChan = 4
	base.BlocksPerPlane = 16
	base.PagesPerBlock = 32

	workload := randomWrites(800, 4, 0.6)

	fmt.Printf("%-6s %16s %16s %10s %6s\n", "sched", "pristine MB/s", "fragmented MB/s", "GC cost", "WA")
	for _, kind := range []sprinkler.SchedulerKind{sprinkler.VAS, sprinkler.PAS, sprinkler.SPK3} {
		pristine := run(base, kind, workload, false)
		frag := run(base, kind, workload, true)
		fmt.Printf("%-6s %16.1f %16.1f %9.1f%% %6.2f\n",
			kind,
			pristine.BandwidthKBps/1024,
			frag.BandwidthKBps/1024,
			100*(1-frag.BandwidthKBps/pristine.BandwidthKBps),
			frag.WriteAmplification)
	}
}

// run executes the workload, optionally on a fragmented device.
func run(cfg sprinkler.Config, kind sprinkler.SchedulerKind, reqs []sprinkler.Request, fragmented bool) *sprinkler.Result {
	cfg.Scheduler = kind
	cfg.DisableGC = !fragmented
	dev, err := sprinkler.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if fragmented {
		dev.Precondition(0.95, 0.5, 42)
	}
	res, err := dev.Run(context.Background(), sprinkler.SliceSource(reqs))
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// randomWrites builds n page-aligned random writes over frac of a small
// logical range (8 chips × 2 dies × 4 planes × 16 blocks × 32 pages
// ≈ 29k logical pages at 90% over-provisioning).
func randomWrites(n, pages int, frac float64) []sprinkler.Request {
	rng := rand.New(rand.NewSource(7))
	span := int64(float64(29000) * frac)
	out := make([]sprinkler.Request, n)
	for i := range out {
		out[i] = sprinkler.Request{
			Write: true,
			LPN:   rng.Int63n(span),
			Pages: pages,
		}
	}
	return out
}
