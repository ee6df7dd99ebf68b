package ssd

import (
	"context"
	"math"
	"testing"

	"sprinkler/internal/core"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// TestSourceBacklogBound drives an open-loop Poisson stream at 1e6 IOPS,
// far above an 8-chip device's service rate, and checks the front end's
// structural bound after every Advance window: the host backlog never
// holds more than QueueDepth I/Os, at most 2×QueueDepth are in flight,
// and every request completes.
func TestSourceBacklogBound(t *testing.T) {
	const n = 2000
	cfg := smallConfig()
	cfg.QueueDepth = 16
	rng := sim.NewRand(5)
	ios := make([]*req.IO, n)
	var at float64
	for i := range ios {
		at += -math.Log(1-rng.Float64()) * float64(sim.Microsecond)
		kind := req.Read
		if rng.Intn(4) == 0 {
			kind = req.Write
		}
		ios[i] = req.NewIO(int64(i), kind, req.LPN(rng.Int63n(1<<14)), 1+rng.Intn(8), sim.Time(at))
	}
	d, err := New(cfg, core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	d.src = &SliceSource{IOs: ios}
	d.scheduleNextArrival()
	peak := 0
	for d.eng.Pending() > 0 {
		d.Advance(d.Now() + 10*sim.Microsecond)
		if b := d.backlogLen(); b > cfg.QueueDepth {
			t.Fatalf("t=%d: backlog %d exceeds queue depth %d", d.Now(), b, cfg.QueueDepth)
		}
		if f := d.Inflight(); f > 2*cfg.QueueDepth {
			t.Fatalf("t=%d: %d I/Os in flight, bound %d", d.Now(), f, 2*cfg.QueueDepth)
		}
		peak = max(peak, d.backlogLen())
	}
	if peak != cfg.QueueDepth {
		t.Fatalf("peak backlog %d never reached the bound %d; the run is not overloaded", peak, cfg.QueueDepth)
	}
	res, err := d.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != n {
		t.Fatalf("completed %d of %d requests", res.IOsCompleted, n)
	}
}
