package ssd

import (
	"testing"

	"sprinkler/internal/core"
	"sprinkler/internal/req"
	"sprinkler/internal/trace"
)

// eventBudgetRun builds the event-budget fixture: a 16-chip (4x4) drive
// with the evaluation platform's block shape, SPK3, and 2000 seeded msnfs2
// requests. It returns the unstarted device and its workload.
func eventBudgetRun(tb testing.TB) (*Device, []*req.IO) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Geo.Channels = 4
	cfg.Geo.ChipsPerChan = 4
	cfg.Geo.BlocksPerPlane = 256
	cfg.Geo.PagesPerBlock = 128
	w, ok := trace.ByName("msnfs2")
	if !ok {
		tb.Fatal("msnfs2 missing")
	}
	ios, err := trace.Generate(w, trace.GenConfig{
		Instructions: 2000,
		LogicalPages: cfg.Geo.TotalPages() * 9 / 10,
		PageSize:     cfg.Geo.PageSize,
		AlignStride:  int64(cfg.Geo.NumChips()),
		Seed:         1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	d, err := New(cfg, core.NewSPK3())
	if err != nil {
		tb.Fatal(err)
	}
	return d, ios
}

// TestEventBudgetPerIO bounds the kernel events a fixed run fires per
// completed I/O. The count is deterministic, so the bound holds on any
// host: it fails when a change adds events that carry no model state
// (a same-instant timer that could ride an existing event, a
// bookkeeping event per notification).
func TestEventBudgetPerIO(t *testing.T) {
	d, ios := eventBudgetRun(t)
	res, err := d.Run(&SliceSource{IOs: ios})
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != int64(len(ios)) {
		t.Fatalf("completed %d of %d I/Os", res.IOsCompleted, len(ios))
	}
	perIO := float64(d.Engine().Fired()) / float64(res.IOsCompleted)
	t.Logf("%d events for %d I/Os: %.2f events/io", d.Engine().Fired(), res.IOsCompleted, perIO)
	if perIO > 16 {
		t.Fatalf("%.2f events per I/O, budget 16", perIO)
	}
}

// BenchmarkDeviceRun times the simulation phase alone of the event-budget
// run: construction and trace generation stay outside the timer. It
// reports the kernel's events per I/O and events per wall second.
func BenchmarkDeviceRun(b *testing.B) {
	b.ReportAllocs()
	var events, ios uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, w := eventBudgetRun(b)
		b.StartTimer()
		res, err := d.Run(&SliceSource{IOs: w})
		if err != nil {
			b.Fatal(err)
		}
		events += d.Engine().Fired()
		ios += uint64(res.IOsCompleted)
	}
	b.ReportMetric(float64(events)/float64(ios), "events/io")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
