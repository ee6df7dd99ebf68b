package ssd

import (
	"fmt"
	"testing"

	"sprinkler/internal/metrics"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/trace"
)

// genIOs synthesizes a deterministic mixed workload.
func genIOs(t *testing.T, cfg Config, n int, seed uint64) []*req.IO {
	t.Helper()
	w, ok := trace.ByName("cfs4")
	if !ok {
		t.Fatal("cfs4 missing")
	}
	ios, err := trace.Generate(w, trace.GenConfig{
		Instructions: n,
		LogicalPages: cfg.Geo.TotalPages() * 9 / 10,
		PageSize:     cfg.Geo.PageSize,
		AlignStride:  int64(cfg.Geo.NumChips()),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ios
}

func cloneIOsForReset(ios []*req.IO) []*req.IO {
	out := make([]*req.IO, len(ios))
	for i, io := range ios {
		c := req.NewIO(io.ID, io.Kind, io.Start, io.Pages, io.Arrival)
		c.FUA = io.FUA
		out[i] = c
	}
	return out
}

// fingerprint flattens the measurements that must survive reuse exactly.
func fingerprint(r *metrics.Result) string {
	return fmt.Sprintf("ios=%d br=%d bw=%d dur=%d latsum=%v p50=%v p99=%v max=%v txns=%d reqs=%d util=%v stall=%d gc=%+v stale=%d flp=%v",
		r.IOsCompleted, r.BytesRead, r.BytesWritten, r.Duration,
		r.Latency.Sum, r.Latency.P50, r.Latency.P99, r.Latency.Max,
		r.Transactions, r.Requests, r.ChipUtilization, r.QueueFullTime, r.GC,
		r.StaleRetranslations, r.FLP.Share)
}

// TestDeviceResetMatchesFresh runs a GC-pressured workload on a fresh
// device and on a device Reset after serving two other runs (one with a
// different scheduler and queue depth, one preconditioned), asserting the
// measured fingerprints are identical — Reset must leave no residue in
// any layer. The full-field byte parity lives in the root package's
// arena tests; this is the internal-layer guard.
func TestDeviceResetMatchesFresh(t *testing.T) {
	cfg := smallConfig()
	cfg.Geo.BlocksPerPlane = 12
	cfg.Geo.PagesPerBlock = 16
	ios := genIOs(t, cfg, 250, 11)

	run := func(d *Device) string {
		res, err := d.Run(&SliceSource{IOs: cloneIOsForReset(ios)})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}

	fresh, err := New(cfg, sched.NewPAS())
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)

	dev, err := New(cfg, sched.NewVAS())
	if err != nil {
		t.Fatal(err)
	}
	// Run 1: different scheduler and queue depth.
	other := cfg
	other.QueueDepth = 16
	if err := dev.Reset(other, sched.NewVAS()); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Run(&SliceSource{IOs: cloneIOsForReset(ios)}); err != nil {
		t.Fatal(err)
	}
	// Run 2: preconditioned, GC-heavy.
	if err := dev.Reset(cfg, sched.NewPAS()); err != nil {
		t.Fatal(err)
	}
	dev.Precondition(0.9, 0.5, 7)
	if _, err := dev.Run(&SliceSource{IOs: cloneIOsForReset(ios)}); err != nil {
		t.Fatal(err)
	}
	// Run 3: the measured one, after Reset — must match the fresh device.
	if err := dev.Reset(cfg, sched.NewPAS()); err != nil {
		t.Fatal(err)
	}
	if got := run(dev); got != want {
		t.Fatalf("reset device diverged from fresh:\nfresh: %s\nreset: %s", want, got)
	}
	if err := dev.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceResetReusesScheduler pins scheduler-instance reuse: the same
// Sprinkler value serves two consecutive runs (its scratch buffers
// emptied through sched.StateResetter) with results identical to fresh
// construction each time.
func TestDeviceResetReusesScheduler(t *testing.T) {
	cfg := smallConfig()
	ios := genIOs(t, cfg, 200, 3)

	s := allSchedulers()[4] // SPK3: the variant with the most scratch state
	dev, err := New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := dev.Run(&SliceSource{IOs: cloneIOsForReset(ios)})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Reset(cfg, s); err != nil {
		t.Fatal(err)
	}
	res2, err := dev.Run(&SliceSource{IOs: cloneIOsForReset(ios)})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res1) != fingerprint(res2) {
		t.Fatalf("scheduler reuse diverged:\nrun1: %s\nrun2: %s", fingerprint(res1), fingerprint(res2))
	}
}
