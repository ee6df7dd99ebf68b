package sprinkler_test

// Long-run soak: the PR 3 memory-ceiling guarantee. A 5M-request
// open-loop stream must hold metrics memory O(1): the latency histogram
// spills into its fixed bucket array, the request free-list recycles I/O
// objects, and the FTL tables stay bounded by the touched address space.
// The test reads runtime.MemStats at the 1M-request mark (steady state:
// pools warm, histogram spilled) and again at the end; heap growth over
// the last 4M requests must stay under a small fixed bound.

import (
	"context"
	"runtime"
	"testing"

	"sprinkler"
	"sprinkler/internal/sim"
)

// soakSource generates uniform single-page reads incrementally and
// snapshots MemStats when the warmup boundary passes through it. Reads
// of never-written pages resolve through the FTL's virtual preloaded
// image, so the mapping tables stay empty and the probe isolates the
// metrics/request-path memory the tentpole bounds.
type soakSource struct {
	rng     *sim.Rand
	span    int64
	emitted int64
	warmup  int64
	atWarm  runtime.MemStats
	warmed  bool
}

func (s *soakSource) Next() (sprinkler.Request, bool) {
	if s.emitted == s.warmup && !s.warmed {
		s.warmed = true
		runtime.GC()
		runtime.ReadMemStats(&s.atWarm)
	}
	s.emitted++
	return sprinkler.Request{LPN: s.rng.Int63n(s.span), Pages: 1}, true
}

func TestSoakConstantMetricsMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("5M-request soak skipped in -short mode")
	}
	const (
		total  = 5_000_000
		warmup = 1_000_000
	)
	cfg := sprinkler.Platform(16)
	cfg.Scheduler = sprinkler.SPK3
	cfg.MetricsSampleCap = 1 << 16 // spill to buckets well before warmup ends
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &soakSource{
		rng:    sim.NewRand(42),
		span:   cfg.TotalPages() * 9 / 10,
		warmup: warmup,
	}
	open := sprinkler.Limit(sprinkler.Poisson(src, 400_000, 42), total)

	res, err := dev.Run(context.Background(), open)
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != total {
		t.Fatalf("completed %d/%d", res.IOsCompleted, total)
	}
	if !res.LatencyEstimated {
		t.Fatal("5M-sample run should have switched to the bucketed estimator")
	}
	if res.P50LatencyNS <= 0 || res.P99LatencyNS < res.P50LatencyNS {
		t.Fatalf("implausible percentiles: p50=%d p99=%d", res.P50LatencyNS, res.P99LatencyNS)
	}

	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if !src.warmed {
		t.Fatal("warmup probe never fired")
	}

	// Metrics memory ceiling: the last 4M requests must not grow the
	// heap. 8 MB of slack absorbs GC timing and pool-capacity noise —
	// the pre-PR histogram alone would have added ~32 MB (4M float64
	// samples) and failed this by a wide margin.
	const maxGrowth = 8 << 20
	grown := int64(end.HeapAlloc) - int64(src.atWarm.HeapAlloc)
	if grown > maxGrowth {
		t.Fatalf("heap grew %d bytes over the measured window (max %d)", grown, maxGrowth)
	}

	// Steady-state allocation rate: the request path recycles I/Os, so
	// the measured window must average well under one allocation per
	// request (it is ~0 plus periodic structures).
	allocs := end.Mallocs - src.atWarm.Mallocs
	perReq := float64(allocs) / float64(total-warmup)
	if perReq > 1.0 {
		t.Fatalf("steady state allocates %.2f objects/request, want < 1", perReq)
	}
}
