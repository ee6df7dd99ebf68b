package sprinkler_test

import (
	"context"
	"strings"
	"testing"

	"sprinkler"
)

// sweepCells builds a small scheduler-comparison grid, re-rolled by seed.
func sweepCells(seed uint64) []sprinkler.Cell {
	return sprinkler.Grid{
		Base:       smallConfig(sprinkler.SPK3),
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{"cfs0", "msnfs1"},
		Requests:   150,
		Seed:       seed,
	}.Cells()
}

// TestSweepConcurrentMatchesSerial runs the same cells with one worker
// and with eight and requires identical results — the determinism
// guarantee of the Runner API.
func TestSweepConcurrentMatchesSerial(t *testing.T) {
	serial := sprinkler.Runner{Workers: 1}.Run(context.Background(), sweepCells(9))
	concurrent := sprinkler.Runner{Workers: 8}.Run(context.Background(), sweepCells(9))
	if len(serial) != len(concurrent) {
		t.Fatalf("result counts differ: %d != %d", len(serial), len(concurrent))
	}
	for i := range serial {
		s, c := serial[i], concurrent[i]
		if s.Err != nil || c.Err != nil {
			t.Fatalf("cell %q failed: serial=%v concurrent=%v", s.Name, s.Err, c.Err)
		}
		if s.Name != c.Name || s.Seed != c.Seed {
			t.Fatalf("cell order broke: %q/%d vs %q/%d", s.Name, s.Seed, c.Name, c.Seed)
		}
		if s.Result.IOsCompleted != c.Result.IOsCompleted ||
			s.Result.DurationNS != c.Result.DurationNS ||
			s.Result.AvgLatencyNS != c.Result.AvgLatencyNS ||
			s.Result.BandwidthKBps != c.Result.BandwidthKBps ||
			s.Result.Transactions != c.Result.Transactions ||
			s.Result.QueueStallNS != c.Result.QueueStallNS {
			t.Fatalf("cell %q diverged:\nserial:     %+v\nconcurrent: %+v", s.Name, s.Result, c.Result)
		}
	}
}

// TestSweepSharesTracePerWorkload: all schedulers of one workload get the
// same seed, different workloads different seeds.
func TestSweepSharesTracePerWorkload(t *testing.T) {
	results := sprinkler.Runner{Workers: 4}.Run(context.Background(), sweepCells(0))
	seeds := map[string]map[uint64]bool{}
	for _, cr := range results {
		if cr.Err != nil {
			t.Fatal(cr.Err)
		}
		w := cr.Name[strings.Index(cr.Name, "/")+1:]
		if seeds[w] == nil {
			seeds[w] = map[uint64]bool{}
		}
		seeds[w][cr.Seed] = true
	}
	if len(seeds) != 2 {
		t.Fatalf("expected 2 workloads, got %d", len(seeds))
	}
	var distinct []uint64
	for w, set := range seeds {
		if len(set) != 1 {
			t.Fatalf("workload %s saw %d seeds, want 1 shared across schedulers", w, len(set))
		}
		for s := range set {
			distinct = append(distinct, s)
		}
	}
	if distinct[0] == distinct[1] {
		t.Fatal("different workloads share a seed")
	}
}

// TestRunnerCellErrorIsolated: one broken cell fails alone.
func TestRunnerCellErrorIsolated(t *testing.T) {
	cfg := smallConfig(sprinkler.VAS)
	good := sprinkler.Cell{
		Name:   "good",
		Config: cfg,
		Source: func(seed uint64) (sprinkler.Source, error) {
			return cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "cfs0", Requests: 50, Seed: seed})
		},
	}
	badCfg := cfg
	badCfg.QueueDepth = -1
	bad := sprinkler.Cell{
		Name:   "bad",
		Config: badCfg,
		Source: good.Source,
	}
	noSource := sprinkler.Cell{Name: "nosource", Config: cfg}

	results := sprinkler.Runner{Workers: 2}.Run(context.Background(), []sprinkler.Cell{good, bad, noSource})
	if results[0].Err != nil {
		t.Fatalf("good cell failed: %v", results[0].Err)
	}
	if results[0].Result.IOsCompleted != 50 {
		t.Fatalf("good cell completed %d/50", results[0].Result.IOsCompleted)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "QueueDepth") {
		t.Fatalf("bad cell error = %v", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "no Source") {
		t.Fatalf("nosource cell error = %v", results[2].Err)
	}
}

// TestRunnerCancelled abandons cells when the context is cancelled.
func TestRunnerCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := sprinkler.Runner{Workers: 2}.Run(ctx, sweepCells(0))
	for _, cr := range results {
		if cr.Err == nil {
			t.Fatalf("cell %q ran under a cancelled context", cr.Name)
		}
	}
}
