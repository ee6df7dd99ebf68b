package sprinkler_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sprinkler"
)

// TestSourceRunMatchesSessionFeed pins that a source-driven Device.Run
// renders the same Result as a Session that is fed the whole workload up
// front and then drained. The session submits every request before the
// first event runs, so its host backlog holds all of them: it is the
// unbounded reference for however far ahead Run pulls its source. The
// cells are every TestDeterminismMatrix device cell, one aged cell
// hydrated from a snapshot, and GC-active and fault-armed cells at queue
// depths 1 and 2, where admission stalls most often.
func TestSourceRunMatchesSessionFeed(t *testing.T) {
	cells := matrixCells(t)
	kinds := sprinkler.Schedulers()
	for i, qd := range []int{1, 1, 2, 2} {
		rng := rand.New(rand.NewSource(int64(i+1) * 104729))
		class := []int{classGC, classFaults}[i%2]
		cfg := parityConfig(rng, kinds[i%len(kinds)], class)
		cfg.QueueDepth = qd
		cells = append(cells, matrixCell{
			name:    fmt.Sprintf("%s/%s/qd=%d", cfg.Scheduler, classNames[class], qd),
			class:   class,
			cfg:     cfg,
			precond: true,
			pseed:   rng.Uint64(),
			source:  paritySource(t, rng, cfg, matrixRequests),
		})
	}
	for _, c := range cells {
		run := runOnce(t, c.cfg, c.precond, c.pseed, c.source())
		var opts []sprinkler.Option
		if c.precond {
			opts = append(opts, sprinkler.WithPrecondition(sprinkler.Precondition{FillFrac: 0.6, ChurnFrac: 0.3, Seed: c.pseed}))
		}
		if got, want := feedAll(t, c.cfg, c.source(), opts...), mustJSON(t, run); got != want {
			t.Errorf("%s: Run diverged from Session.Feed:\n feed: %s\n run:  %s", c.name, got, want)
		}
	}

	aged := agedConfig(sprinkler.SPK1)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(checkpointOf(t, aged, 0.7, 0.3, 41)))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := snap.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	src := func() sprinkler.Source { return workloadSource(t, aged, "proj0", matrixRequests, 43) }
	res, err := dev.Run(context.Background(), src())
	if err != nil {
		t.Fatal(err)
	}
	if res.GCRuns == 0 {
		t.Error("hydrated aged cell never collected; it does not cover GC-stalled admission")
	}
	if got, want := feedAll(t, aged, src(), sprinkler.WithSnapshot(snap)), mustJSON(t, res); got != want {
		t.Errorf("hydrated: Run diverged from Session.Feed:\n feed: %s\n run:  %s", got, want)
	}
}

// feedAll opens a session, feeds it all of src at once, drains it and
// renders the Result.
func feedAll(t *testing.T, cfg sprinkler.Config, src sprinkler.Source, opts ...sprinkler.Option) string {
	t.Helper()
	sess, err := sprinkler.Open(cfg, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := sess.Feed(src, 0); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return mustJSON(t, res)
}
