package ssd

import (
	"runtime"
	"slices"
	"testing"

	"sprinkler/internal/core"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// markedSource replays a request list and, as the device pulls the I/O
// at each mark, records the process's heap allocation count and the
// FTL's GC job count.
type markedSource struct {
	SliceSource
	d        *Device
	marks    []int
	allocs   []uint64
	jobs     []int64
	memStats runtime.MemStats
}

func (s *markedSource) Next() (*req.IO, bool) {
	if slices.Contains(s.marks, s.i) {
		runtime.ReadMemStats(&s.memStats)
		s.allocs = append(s.allocs, s.memStats.Mallocs)
		s.jobs = append(s.jobs, s.d.fl.Stats().GCRuns)
	}
	return s.SliceSource.Next()
}

// TestGCRunAllocFree pins that garbage collection allocates nothing per
// job: on a drive aged to GC steady state, a write window with hundreds
// of timed GC jobs allocates no more than a window with a few dozen. Each
// chip's runner, its job and the job's migration list are reused.
func TestGCRunAllocFree(t *testing.T) {
	cfg := gcConfig()
	d, err := New(cfg, core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	d.Precondition(0.9, 0.5, 3)
	rng := sim.NewRand(9)
	ios := make([]*req.IO, 6000)
	for i := range ios {
		ios[i] = req.NewIO(int64(i), req.Write, req.LPN(rng.Int63n(cfg.LogicalPages-8)), 1+rng.Intn(8), 0)
	}
	// The first 1000 writes grow every reused buffer to its working size.
	src := &markedSource{SliceSource: SliceSource{IOs: ios}, d: d, marks: []int{1000, 2000, 6000}}
	src.allocs = make([]uint64, 0, len(src.marks))
	src.jobs = make([]int64, 0, len(src.marks))
	if _, err := d.Run(src); err != nil {
		t.Fatal(err)
	}
	if len(src.allocs) != len(src.marks) {
		t.Fatalf("recorded %d of %d marks", len(src.allocs), len(src.marks))
	}
	shortJobs, longJobs := src.jobs[1]-src.jobs[0], src.jobs[2]-src.jobs[1]
	shortAllocs, longAllocs := src.allocs[1]-src.allocs[0], src.allocs[2]-src.allocs[1]
	t.Logf("short window: %d GC jobs, %d allocs; long window: %d GC jobs, %d allocs",
		shortJobs, shortAllocs, longJobs, longAllocs)
	if longJobs < 100 || longJobs < 2*shortJobs {
		t.Fatalf("test premise broken: %d GC jobs in the long window, %d in the short one", longJobs, shortJobs)
	}
	// One allocation per 100 extra jobs absorbs the runtime's own noise;
	// a fresh migration list per job would exceed it 100-fold.
	if extra := int64(longAllocs) - int64(shortAllocs); extra > (longJobs-shortJobs)/100 {
		t.Fatalf("%d allocs for %d GC jobs, against %d for %d: GC allocates per job",
			longAllocs, longJobs, shortAllocs, shortJobs)
	}
}
