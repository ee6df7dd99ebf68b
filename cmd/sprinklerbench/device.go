package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sprinkler"
)

// deviceWorkload is pristine-read or aged-write: one 64-chip device that
// every repetition brings back to the same starting state — by Reset for
// the pristine drive, by hydrating a warm-state snapshot for the aged one —
// before streaming the same seeded Table 1 workload through Run.
type deviceWorkload struct {
	cfg  sprinkler.Config
	spec sprinkler.WorkloadSpec
	seed uint64
	aged bool

	dev       *sprinkler.Device         // pristine: Reset before every repetition
	snap      *sprinkler.DeviceSnapshot // aged: hydrated by every repetition
	snapBytes int                       // aged: encoded snapshot size
	ref       *sprinkler.Result         // the warm-up's result
}

// pristineRead is the read-heavy, high-locality workload on a fresh drive:
// FARO coalesces heavily, so the scheduler and event kernel do the work
// while the FTL only translates and GC never runs.
func pristineRead(o options) *deviceWorkload {
	cfg := sprinkler.Platform(64)
	cfg.Scheduler = sprinkler.SPK3
	return &deviceWorkload{
		cfg:  cfg,
		spec: sprinkler.WorkloadSpec{Name: "msnfs2", Requests: scaled(200_000, o.scale), Seed: o.seed},
		seed: o.seed,
	}
}

// agedWrite is the write-heavy, low-locality workload on a drive aged to
// GC steady state: FTL garbage collection, flash transaction building and
// snapshot hydration do the work, and the scheduler has little to coalesce.
// Below scale 1 the drive shrinks with the scale (to 16 chips at least), so
// that aging it stays cheap; fewer blocks per plane would instead push the
// model's GC past saturation.
func agedWrite(o options) *deviceWorkload {
	cfg := sprinkler.Platform(max(16, scaled(64, o.scale)))
	cfg.Scheduler = sprinkler.SPK3
	cfg.BlocksPerPlane = 64
	cfg.LogicalPages = cfg.TotalPages() * 8 / 10
	return &deviceWorkload{
		cfg:  cfg,
		spec: sprinkler.WorkloadSpec{Name: "msnfs1", Requests: scaled(40_000, o.scale), Seed: o.seed},
		seed: o.seed,
		aged: true,
	}
}

func (w *deviceWorkload) setup(ctx context.Context, tr *tracer) error {
	var dev *sprinkler.Device
	err := tr.span("sprinkler.new", -1, -1, func() (err error) {
		dev, err = sprinkler.New(w.cfg)
		return err
	})
	if err != nil {
		return err
	}
	if !w.aged {
		w.dev = dev
		return nil
	}
	tr.span("sprinkler.precondition", -1, -1, func() error {
		dev.Precondition(0.9, 0.3, w.seed)
		return nil
	})
	var buf bytes.Buffer
	if err := tr.span("sprinkler.checkpoint", -1, -1, func() error { return dev.Checkpoint(&buf) }); err != nil {
		return err
	}
	w.snapBytes = buf.Len()
	return tr.span("sprinkler.read_snapshot", -1, -1, func() (err error) {
		w.snap, err = sprinkler.ReadSnapshot(&buf)
		return err
	})
}

// rep runs one repetition: bring the device to its starting state, build
// the source and run it.
func (w *deviceWorkload) rep(ctx context.Context, tr *tracer, rep int) (*sprinkler.Result, error) {
	parent := tr.begin("rep", -1, rep, true)
	defer tr.end(parent)
	dev := w.dev
	var err error
	if w.aged {
		err = tr.span("sprinkler.hydrate", parent, rep, func() (err error) {
			dev, err = w.snap.NewDevice()
			return err
		})
	} else {
		err = tr.span("sprinkler.reset", parent, rep, func() error { return dev.Reset(w.cfg) })
	}
	if err != nil {
		return nil, err
	}
	var src sprinkler.Source
	if err := tr.span("sprinkler.source", parent, rep, func() (err error) {
		src, err = w.cfg.NewWorkloadSource(w.spec)
		return err
	}); err != nil {
		return nil, err
	}
	var res *sprinkler.Result
	err = tr.span("sprinkler.run", parent, rep, func() (err error) {
		res, err = dev.Run(ctx, src)
		return err
	})
	return res, err
}

func (w *deviceWorkload) warmup(ctx context.Context, ck *checker) error {
	res, err := w.rep(ctx, nil, -1)
	if err != nil {
		return err
	}
	ck.op(ck.check("run", res, int64(w.spec.Requests)))
	w.ref = res
	return nil
}

func (w *deviceWorkload) measure(ctx context.Context, d time.Duration, tr *tracer, ck *checker) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < d; rep++ {
		t0 := time.Now()
		res, err := w.rep(ctx, tr, rep)
		took := time.Since(t0)
		if err != nil {
			return nil, err
		}
		ck.op(ck.check("run", res, int64(w.spec.Requests)))
		p.rates = append(p.rates, float64(res.IOsCompleted)/took.Seconds())
		p.calls = append(p.calls, call{"run", took})
		p.ios += res.IOsCompleted
	}
	p.wall = time.Since(start)
	p.ops = p.ios
	if w.aged {
		p.layer["sprinkler.snapshot_bytes"] = float64(w.snapBytes)
	}
	return p, nil
}

func (w *deviceWorkload) refs() []*sprinkler.Result { return []*sprinkler.Result{w.ref} }

func (w *deviceWorkload) sources() ([]sprinkler.Source, error) {
	src, err := w.cfg.NewWorkloadSource(w.spec)
	return []sprinkler.Source{src}, err
}

func (w *deviceWorkload) info(p *pass) []string {
	return []string{fmt.Sprintf("reps %d of %d requests (%s), I/O/s each %s",
		len(p.rates), w.spec.Requests, w.spec.Name, fmtFloats(p.rates))}
}

func (w *deviceWorkload) close() { w.dev, w.snap = nil, nil }
