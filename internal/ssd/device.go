package ssd

import (
	"context"
	"errors"
	"fmt"

	"sprinkler/internal/flash"
	"sprinkler/internal/ftl"
	"sprinkler/internal/metrics"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// IOSource supplies host I/O requests in arrival order. Next returns false
// when the workload is exhausted.
type IOSource interface {
	Next() (*req.IO, bool)
}

// SliceSource replays a fixed request list.
type SliceSource struct {
	IOs []*req.IO
	i   int
}

// Next implements IOSource.
func (s *SliceSource) Next() (*req.IO, bool) {
	if s.i >= len(s.IOs) {
		return nil, false
	}
	io := s.IOs[s.i]
	s.i++
	return io, true
}

// Device is the assembled SSD model. Build one with New; Reset recycles it
// for the next run.
type Device struct {
	cfg   Config
	eng   *sim.Engine
	sch   sched.Scheduler
	queue *nvmhc.Queue
	fl    *ftl.FTL
	ctrls []*controller

	outstanding []int // per chip: selected-but-unserved memory requests

	// ready is the incremental per-chip index of still-queued memory
	// requests: fed on admission, drained on commitment, re-pointed on
	// readdressing. Schedulers read it through the Fabric interface.
	ready *sched.ReadyIndex

	// DMA engine: memory request composition serializes here (§2.1). The
	// compose queue is head-indexed like the backlog, and the in-flight
	// composition uses a reusable timer (one composition at a time).
	// When the configured compose latency is zero, consecutive queued
	// compositions complete at the same instant; composeBatch (the
	// default) folds them into one timer event instead of bouncing
	// through the heap once per member.
	composeQ     []*req.Mem
	composeHead  int
	composing    bool
	composeM     *req.Mem
	composeTimer *sim.Timer
	composeBatch bool

	// Host front end. The backlog is a head-indexed queue: popping is
	// O(1) so admission stays linear even when a session submits
	// thousands of requests ahead of the device-level queue.
	backlogHead int
	src         IOSource
	backlog     []*req.IO
	srcStalled  bool // source pull paused: the backlog holds QueueDepth I/Os

	// Source arrivals chain one at a time through a reusable timer.
	arrivalIO    *req.IO
	arrivalTimer *sim.Timer

	pumping bool

	// onRetire, installed with SetIORetire, observes each host I/O after
	// it has fully completed and left every device structure — the
	// free-list recycling hook for the session/source layer.
	onRetire func(*req.IO)

	gcActive      []bool // per chip: background GC job in flight
	gcActiveCount int
	emergencyGCs  int64
	staleFixes    int64
	failedIOs     int64 // host I/Os completed with Failed set (incl. refusals)

	// Accounting.
	busyChips      int
	busyIntegral   float64
	sysBusyTime    sim.Time
	lastAccount    sim.Time
	inflight       int
	latency        sim.Histogram
	series         []metrics.SeriesPoint
	seriesHead     int // ring cursor (oldest point) in SeriesWindow mode
	bytesRead      int64
	bytesWritten   int64
	iosDone        int64
	lastCompletion sim.Time

	// sampleBuf is resultAt's per-chip sample scratch, reused across
	// Results: metrics.Result.Compute folds the samples into aggregates
	// without retaining the slice, so rendering a Result (the per-sweep-cell
	// hot path) does not allocate per chip.
	sampleBuf []metrics.ChipSample

	// transientResults marks every Result this device renders as
	// flatten-and-discard: the caller promises not to retain the
	// metrics.Result (or read its Latency histogram) past the next
	// Observe/Reset, so resultAt borrows the live latency storage
	// instead of Clone-sharing it, and the device's next Reset reuses
	// the grown sample array rather than re-growing from nil. The public
	// API layer sets this — its Run/Drain/Snapshot paths all flatten the
	// internal result immediately — while internal callers keeping
	// self-contained Results leave it off.
	transientResults bool
}

// SetTransientResults declares that every metrics.Result this device
// renders is flattened and discarded before the device next observes a
// sample or resets — the public API's contract. Rendering then borrows
// the live latency storage instead of Clone-sharing it, so recycled
// devices keep their grown sample arrays across runs. Callers that
// retain Results (or read Latency later) must leave this off.
func (d *Device) SetTransientResults(on bool) { d.transientResults = on }

// New builds a Device with the given scheduler.
func New(cfg Config, scheduler sched.Scheduler) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if scheduler == nil {
		return nil, errors.New("ssd: nil scheduler")
	}
	fl, err := ftl.New(cfg.ftlConfig())
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:         cfg,
		eng:         sim.NewEngine(),
		sch:         scheduler,
		queue:       nvmhc.NewQueue(cfg.QueueDepth),
		fl:          fl,
		outstanding: make([]int, cfg.Geo.NumChips()),
		ready:       sched.NewReadyIndex(cfg.Geo.NumChips()),
		gcActive:    make([]bool, cfg.Geo.NumChips()),
		sampleBuf:   make([]metrics.ChipSample, 0, cfg.Geo.NumChips()),
	}
	d.latency.SetCap(cfg.MetricsSampleCap)
	d.composeBatch = true
	d.composeTimer = sim.NewTimer(func(t sim.Time) {
		for {
			m := d.composeM
			d.composeM = nil
			d.composing = false
			d.finishCompose(t, m)
			// With zero compose latency the next queued composition also
			// completes at t: serve it within this event (one timer fire
			// per batch instead of per member). Completion order and
			// instants are identical to the chained path.
			if !d.composeBatch || d.cfg.ComposeLatency != 0 || d.composeHead >= len(d.composeQ) {
				break
			}
			d.composing = true
			d.composeM = d.popCompose()
		}
		d.kickComposer(t)
	})
	d.arrivalTimer = sim.NewTimer(func(now sim.Time) {
		io := d.arrivalIO
		d.arrivalIO = nil
		d.arrive(now, io)
	})
	d.ctrls = make([]*controller, cfg.Geo.Channels)
	for ch := range d.ctrls {
		d.ctrls[ch] = newController(d.eng, d, cfg.Geo, cfg.Tim, cfg.Faults.flashConfig(), ch)
	}
	return d, nil
}

// txnStarted accounts a transaction that began executing on some chip.
func (d *Device) txnStarted(now sim.Time) {
	d.account(now)
	d.busyChips++
}

// txnDone accounts a retired transaction and lets the scheduler use the
// freed chip.
func (d *Device) txnDone(now sim.Time) {
	d.account(now)
	d.busyChips--
	d.pump(now)
}

// Reset re-initializes the device in place for a new run, as if freshly
// built by New(cfg, scheduler) — but reusing every geometry-sized arena
// the first construction allocated: the kernel's event slab, the per-chip
// controller state, the FTL's block metadata, bitmap pools and mapping
// tables, the device-level queue's tag slots, and the ready index. Only
// the geometry is fixed at construction; every per-run knob (queue depth,
// timing, GC policy, allocation scheme, metrics caps) may change between
// runs. A reset device produces a timeline — and therefore a Result —
// byte-identical to a fresh device's, which is what lets sweep runners
// recycle devices across cells.
//
// The previous run must have drained (or never started); resetting a
// device with I/Os in flight is a caller bug. The scheduler may be the
// previous run's instance (its per-run state is dropped through
// sched.StateResetter) or a fresh one.
func (d *Device) Reset(cfg Config, scheduler sched.Scheduler) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if scheduler == nil {
		return errors.New("ssd: nil scheduler")
	}
	if cfg.Geo != d.cfg.Geo {
		return fmt.Errorf("ssd: Reset geometry mismatch: device built for %d chips (%dx%d), got %dx%d",
			d.cfg.Geo.NumChips(), d.cfg.Geo.Channels, d.cfg.Geo.ChipsPerChan,
			cfg.Geo.Channels, cfg.Geo.ChipsPerChan)
	}
	if err := d.fl.Reset(cfg.ftlConfig()); err != nil {
		return err
	}
	d.eng.Reset()
	if cfg.QueueDepth == d.cfg.QueueDepth {
		d.queue.Reset()
	} else {
		d.queue = nvmhc.NewQueue(cfg.QueueDepth)
	}
	for _, ctl := range d.ctrls {
		ctl.reset(cfg.Tim, cfg.Faults.flashConfig())
	}
	if r, ok := scheduler.(sched.StateResetter); ok {
		r.ResetState()
	}
	d.sch = scheduler
	for i := range d.outstanding {
		d.outstanding[i] = 0
	}
	d.ready.Reset()

	for i := range d.composeQ {
		d.composeQ[i] = nil
	}
	d.composeQ = d.composeQ[:0]
	d.composeHead = 0
	d.composing = false
	d.composeM = nil
	d.composeTimer.Stop()

	for i := range d.backlog {
		d.backlog[i] = nil
	}
	d.backlog = d.backlog[:0]
	d.backlogHead = 0
	d.src = nil
	d.srcStalled = false
	d.arrivalIO = nil
	d.arrivalTimer.Stop()
	d.pumping = false
	d.onRetire = nil

	for i := range d.gcActive {
		d.gcActive[i] = false
	}
	d.gcActiveCount = 0
	d.emergencyGCs, d.staleFixes, d.failedIOs = 0, 0, 0

	d.busyChips = 0
	d.busyIntegral = 0
	d.sysBusyTime, d.lastAccount = 0, 0
	d.inflight = 0
	d.latency.Reset(cfg.MetricsSampleCap)
	if d.cfg.CollectSeries && d.cfg.SeriesWindow > 0 {
		// The windowed ring never escapes into Results; reuse it.
		d.series = d.series[:0]
	} else {
		// Exact-mode series slices escape into the previous run's Result.
		d.series = nil
	}
	d.seriesHead = 0
	d.bytesRead, d.bytesWritten, d.iosDone = 0, 0, 0
	d.lastCompletion = 0
	d.cfg = cfg
	return nil
}

// Engine exposes the simulation engine (tests drive it directly).
func (d *Device) Engine() *sim.Engine { return d.eng }

// FTL exposes the translation layer (preconditioning, tests).
func (d *Device) FTL() *ftl.FTL { return d.fl }

// Geo implements sched.Fabric.
func (d *Device) Geo() flash.Geometry { return d.cfg.Geo }

// Outstanding implements sched.Fabric.
func (d *Device) Outstanding(c flash.ChipID) int { return d.outstanding[int(c)] }

// ChipBusy implements sched.Fabric: the chip's R/B line.
func (d *Device) ChipBusy(c flash.ChipID) bool {
	return d.ctrls[d.cfg.Geo.Channel(c)].chip(c).Busy()
}

// Ready implements sched.Fabric: the per-chip ready index.
func (d *Device) Ready() *sched.ReadyIndex { return d.ready }

// account advances the gated busy-chip integral to now. The gate is
// "system busy": at least one host I/O outstanding (arrived, incomplete).
func (d *Device) account(now sim.Time) {
	if d.inflight > 0 {
		dt := float64(now - d.lastAccount)
		d.busyIntegral += float64(d.busyChips) * dt
		d.sysBusyTime += now - d.lastAccount
	}
	d.lastAccount = now
}

// Precondition fills fillFrac of the logical space and then overwrites
// churnFrac of it at random — the "filled by 95% with random writes just
// before the GC begins" preparation of §5.9. The fill is timing-free (it
// shapes the physical layout, not the measured timeline); FTL activity
// counters are reset afterwards. Call before Run.
func (d *Device) Precondition(fillFrac, churnFrac float64, seed uint64) {
	logical := d.cfg.logicalPages()
	fill := int64(float64(logical) * fillFrac)
	// One reusable I/O for the whole fill+churn: preconditioning touches
	// millions of pages and would otherwise allocate three objects each.
	io := req.NewIO(-1, req.Write, 0, 1, 0)
	for lpn := int64(0); lpn < fill; lpn++ {
		io.Reset(-1, req.Write, req.LPN(lpn), 1, 0)
		d.preprocess(io.Mem[0])
	}
	rng := sim.NewRand(seed + 11)
	churn := int64(float64(fill) * churnFrac)
	for i := int64(0); i < churn; i++ {
		// Sweep the pressured planes periodically instead of leaning on the
		// per-write emergency path: batched collection keeps the churn
		// phase linear in the write count.
		if i%512 == 0 {
			d.mappingGCSweep()
		}
		io.Reset(-1, req.Write, req.LPN(rng.Int63n(fill)), 1, 0)
		d.preprocess(io.Mem[0])
	}
	d.fl.ResetStats()
	d.emergencyGCs = 0
}

// mappingGCSweep runs one timing-free collection pass over every plane
// under pressure (preconditioning only).
func (d *Device) mappingGCSweep() {
	for _, pi := range d.fl.NeedGC() {
		job, err := d.fl.PlanGC(pi)
		if err != nil || job == nil {
			continue
		}
		d.applyMigrations(d.fl.CommitGC(job, false))
	}
}

// Run drives the workload to completion and returns the measurements.
func (d *Device) Run(src IOSource) (*metrics.Result, error) {
	return d.RunContext(context.Background(), src)
}

// RunContext drives the workload to completion, polling ctx between event
// batches. The source is pulled lazily (see scheduleNextArrival), so the
// request stream itself costs O(1) memory however long the workload is.
// On cancellation it returns the mid-run snapshot together with the
// context's error.
func (d *Device) RunContext(ctx context.Context, src IOSource) (*metrics.Result, error) {
	d.src = src
	d.scheduleNextArrival()
	return d.drain(ctx)
}

// Drain runs every outstanding event (submitted I/Os, GC, source arrivals)
// to completion and returns the final measurements. Session mode's
// terminal call; RunContext uses the same loop.
func (d *Device) Drain(ctx context.Context) (*metrics.Result, error) {
	return d.drain(ctx)
}

// cancelCheckEvents is how many simulation events execute between context
// polls: coarse enough to stay off the hot path, fine enough that
// cancellation lands within milliseconds of wall time.
const cancelCheckEvents = 1 << 16

func (d *Device) drain(ctx context.Context) (*metrics.Result, error) {
	for d.eng.Pending() > 0 {
		if err := ctx.Err(); err != nil {
			return d.Snapshot(), err
		}
		d.eng.Run(d.eng.Fired() + cancelCheckEvents)
	}
	d.account(d.eng.Now())
	if d.inflight > 0 {
		return nil, fmt.Errorf("ssd: simulation stalled with %d I/Os in flight (%s)", d.inflight, d.sch.Name())
	}
	return d.result(), nil
}

// Submit schedules one host I/O arrival directly (session mode — no
// IOSource needed). Arrival times in the simulated past are clamped to
// the current simulation time.
func (d *Device) Submit(io *req.IO) {
	at := io.Arrival
	if at < d.eng.Now() {
		at = d.eng.Now()
		io.Arrival = at
	}
	d.eng.At(at, func(now sim.Time) { d.arrive(now, io) })
}

// Advance executes events up to the given absolute simulation time and
// then moves the clock there, leaving later events queued. Session mode's
// windowing primitive.
func (d *Device) Advance(to sim.Time) {
	d.eng.RunUntil(to)
	d.account(d.eng.Now())
}

// Now returns the current simulation time.
func (d *Device) Now() sim.Time { return d.eng.Now() }

// SetIORetire installs the completed-I/O observer. The device calls it
// once per host I/O after the tag is released and all accounting is done,
// so the request object (and its member requests) may be recycled. Call
// before the run starts; passing nil removes the hook.
func (d *Device) SetIORetire(fn func(*req.IO)) { d.onRetire = fn }

// Inflight reports how many host I/Os have arrived but not completed.
// During a source-driven run it counts only I/Os already pulled from the
// source, at most 2×QueueDepth: the queue's tags plus the bounded backlog.
func (d *Device) Inflight() int { return d.inflight }

// scheduleNextArrival chains host arrivals one event at a time, preserving
// source order even when arrival timestamps collide.
func (d *Device) scheduleNextArrival() {
	if d.src == nil {
		return
	}
	if d.backlogLen() >= d.cfg.QueueDepth {
		// Pause the pull instead of buffering without bound; admission
		// progress (drainBacklog) resumes it. One drainBacklog admits at
		// most QueueDepth I/Os, so a backlog this deep never runs dry
		// before the queue fills, and admission proceeds exactly as if
		// the whole workload were buffered.
		d.srcStalled = true
		return
	}
	d.srcStalled = false
	io, ok := d.src.Next()
	if !ok {
		return
	}
	at := io.Arrival
	if at < d.eng.Now() {
		at = d.eng.Now()
	}
	d.arrivalIO = io
	d.eng.AtTimer(at, d.arrivalTimer)
}

func (d *Device) arrive(now sim.Time, io *req.IO) {
	d.account(now)
	d.inflight++
	// Every drainBacklog leaves the backlog empty, the queue full or the
	// head a write stalled at the allocator, and only an I/O or GC
	// completion changes that. So a non-empty backlog is not retried per
	// arrival, except in degraded mode, which refuses the stalled head
	// instead of placing it.
	retry := d.backlogLen() == 0 || d.fl.Degraded()
	d.backlog = append(d.backlog, io)
	if retry {
		d.drainBacklog(now)
	}
	d.scheduleNextArrival()
}

// backlogLen reports the host requests waiting for admission.
func (d *Device) backlogLen() int { return len(d.backlog) - d.backlogHead }

// popBacklog removes the backlog head in O(1), compacting the slice once
// the dead prefix dominates so memory tracks the live queue length.
func (d *Device) popBacklog() {
	d.backlog[d.backlogHead] = nil
	d.backlogHead++
	if d.backlogHead == len(d.backlog) {
		d.backlog = d.backlog[:0]
		d.backlogHead = 0
	} else if d.backlogHead >= 1024 && d.backlogHead*2 >= len(d.backlog) {
		n := copy(d.backlog, d.backlog[d.backlogHead:])
		for i := n; i < len(d.backlog); i++ {
			d.backlog[i] = nil
		}
		d.backlog = d.backlog[:n]
		d.backlogHead = 0
	}
}

// drainBacklog admits host I/Os into the device-level queue while tags are
// free: the tag is secured and the physical layout of every memory request
// is identified (core.preprocess in Algorithm 1) — no data moves yet.
//
// Admission stalls when the allocator cannot place a write even after
// emergency collection (every chip mid-GC); the I/O stays at the backlog
// head and admission retries when a GC job or an I/O completes.
func (d *Device) drainBacklog(now sim.Time) {
	admitted := false
	for d.backlogLen() > 0 && !d.queue.Full() {
		io := d.backlog[d.backlogHead]
		if io.Kind == req.Write && d.fl.Degraded() {
			// Degraded read-only mode (spare pool exhausted): writes are
			// refused at admission instead of wedging the allocator; reads
			// keep flowing. The refusal is progress, so the source pull
			// resumes below like any admission.
			d.popBacklog()
			d.refuseIO(now, io)
			admitted = true
			continue
		}
		ok := true
		for _, m := range io.Mem {
			if m.Resolved {
				continue
			}
			if !d.preprocess(m) {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		d.popBacklog()
		d.queue.Enqueue(now, io)
		for _, m := range io.Mem {
			d.ready.Add(m)
		}
		admitted = true
	}
	if admitted {
		if d.srcStalled {
			d.scheduleNextArrival()
		}
		d.pump(now)
	}
}

// refuseIO completes a host I/O as failed without servicing it (degraded
// read-only mode). The I/O never secured a tag, so there is no queue
// release; it is counted completed (with Failed set) so sessions and drains
// converge instead of stalling, but contributes no latency or byte counts.
func (d *Device) refuseIO(now sim.Time, io *req.IO) {
	io.Failed = true
	io.Done = now
	d.iosDone++
	d.failedIOs++
	d.lastCompletion = now
	d.account(now)
	d.inflight--
	if d.onRetire != nil {
		d.onRetire(io)
	}
}

// preprocess resolves a memory request's physical address, falling back to
// emergency mapping-level GC passes when the allocator runs dry (the
// background GC normally prevents this). It reports whether the request
// was resolved; false means every reclaimable chip is mid-GC and the
// caller must retry after a completion.
func (d *Device) preprocess(m *req.Mem) bool {
	err := d.fl.Preprocess(m)
	if err == nil {
		m.Resolved = true
		return true
	}
	d.emergencyGCs++
	// Each pass reclaims at most one block, so loop until the write fits
	// or nothing more can be reclaimed right now.
	for attempt := 0; attempt < 16; attempt++ {
		reclaimed := false
		for _, pi := range d.fl.NeedGC() {
			// Never touch a chip with a background GC job in flight: the
			// in-flight job's victim and destinations would be invalidated
			// under it.
			if d.gcActive[d.planeChip(pi)] {
				continue
			}
			job, jerr := d.fl.PlanGC(pi)
			if jerr != nil || job == nil {
				continue
			}
			d.applyMigrations(d.fl.CommitGC(job, false))
			reclaimed = true
			// Retry as soon as one block is reclaimed: full passes over
			// every pressured plane are wasted work under heavy churn.
			if err = d.fl.Preprocess(m); err == nil {
				m.Resolved = true
				return true
			}
		}
		if !reclaimed {
			if d.gcActiveCount > 0 {
				return false // wait for background GC to finish
			}
			panic(fmt.Sprintf("ssd: out of flash space with no GC in flight: %v", err))
		}
	}
	panic(fmt.Sprintf("ssd: out of flash space even after emergency GC: %v", err))
}

// pump asks the scheduler for the next commitments until it has none.
func (d *Device) pump(now sim.Time) {
	if d.pumping {
		return
	}
	d.pumping = true
	for {
		batch := d.sch.Select(now, d.queue, d)
		if len(batch) == 0 {
			break
		}
		for _, m := range batch {
			if m.State != req.StateQueued {
				panic(fmt.Sprintf("ssd: scheduler re-selected %v", m))
			}
			m.State = req.StateComposed
			m.Composed = now
			d.outstanding[int(m.Addr.Chip)]++
			d.ready.Remove(m)
			d.composeQ = append(d.composeQ, m)
		}
	}
	d.pumping = false
	d.kickComposer(now)
}

// kickComposer runs the DMA engine: one composition at a time. The queue
// is head-indexed so popping is O(1); the slice is reclaimed whenever it
// fully drains, which it does constantly at steady state.
func (d *Device) kickComposer(now sim.Time) {
	if d.composing || d.composeHead >= len(d.composeQ) {
		return
	}
	d.composing = true
	d.composeM = d.popCompose()
	d.eng.AfterTimer(d.cfg.ComposeLatency, d.composeTimer)
}

// popCompose removes and returns the compose queue's head.
func (d *Device) popCompose() *req.Mem {
	m := d.composeQ[d.composeHead]
	d.composeQ[d.composeHead] = nil
	d.composeHead++
	if d.composeHead == len(d.composeQ) {
		d.composeQ = d.composeQ[:0]
		d.composeHead = 0
	}
	return m
}

// SetComposeBatching toggles same-instant composition batching (on by
// default). The one-event-per-composition path is retained so parity
// tests can pin the batched timeline against it.
func (d *Device) SetComposeBatching(on bool) { d.composeBatch = on }

// finishCompose commits a composed request to its flash controller,
// handling stale physical addresses left by live-data migration for
// schedulers without the readdressing callback (§4.3).
func (d *Device) finishCompose(now sim.Time, m *req.Mem) {
	m.IO.NoteFirstData(now)
	if m.IO.Kind == req.Read {
		if fresh, ok := d.fl.Lookup(m.LPN); ok && fresh != m.Addr {
			d.outstanding[int(m.Addr.Chip)]--
			d.outstanding[int(fresh.Chip)]++
			m.Addr = fresh
			if !d.sch.NeedsReaddressing() {
				// The scheduler planned against a stale layout: the core
				// must re-translate before commitment.
				d.staleFixes++
				d.eng.After(d.cfg.RetranslatePenalty, func(t sim.Time) { d.commit(t, m) })
				return
			}
		}
	}
	d.commit(now, m)
}

func (d *Device) commit(now sim.Time, m *req.Mem) {
	m.State = req.StateCommitted
	m.Committed = now
	ch := d.cfg.Geo.Channel(m.Addr.Chip)
	d.ctrls[ch].commit(now, flash.Request{Op: m.Op(), Addr: m.Addr, Token: m})
}

// onFlashReqDone routes flash-level completions: host memory requests
// finish their I/O bookkeeping; GC steps advance their job state machine.
func (d *Device) onFlashReqDone(now sim.Time, r flash.Request) {
	switch tok := r.Token.(type) {
	case *req.Mem:
		d.finishMem(now, tok, r.Failed)
	case *gcStep:
		tok.advance(now, r.Failed)
	default:
		panic(fmt.Sprintf("ssd: unknown token %T", r.Token))
	}
}

// rewriteOutcome classifies program-fail recovery attempts.
type rewriteOutcome int

const (
	// rewriteReissued: the page was remapped and the write re-entered the
	// DMA compose queue; the member is not done.
	rewriteReissued rewriteOutcome = iota
	// rewriteStale: the host overwrote the LPN while the failed program
	// was in flight, so the lost data was already stale; complete as-is.
	rewriteStale
	// rewriteExhausted: the rewrite ladder is spent or no replacement page
	// could be allocated; the host I/O fails.
	rewriteExhausted
)

// recoverProgramFail handles a host write whose program reported failure:
// the FTL remaps the page to a fresh block and the member re-enters the DMA
// compose queue, so the rewrite pays the data transfer again like any
// composed write.
func (d *Device) recoverProgramFail(now sim.Time, m *req.Mem) rewriteOutcome {
	if int(m.Rewrites) >= d.cfg.Faults.RewriteMax {
		return rewriteExhausted
	}
	a, ok, err := d.fl.RemapProgramFail(m.LPN, m.Addr)
	if err != nil {
		return rewriteExhausted
	}
	if !ok {
		return rewriteStale
	}
	m.Rewrites++
	m.Addr = a
	m.State = req.StateComposed
	m.Composed = now
	d.outstanding[int(a.Chip)]++
	d.composeQ = append(d.composeQ, m)
	d.kickComposer(now)
	return rewriteReissued
}

func (d *Device) finishMem(now sim.Time, m *req.Mem, failed bool) {
	d.outstanding[int(m.Addr.Chip)]--
	if failed {
		if m.IO.Kind == req.Write {
			switch d.recoverProgramFail(now, m) {
			case rewriteReissued:
				return
			case rewriteStale:
				// Lost data was stale; the member completes as served.
			case rewriteExhausted:
				m.IO.Failed = true
			}
		} else {
			// Uncorrectable read: the retry ladder is exhausted and the
			// payload is lost; the host I/O completes with an error.
			m.IO.Failed = true
		}
	}
	m.State = req.StateDone
	m.Finished = now
	io := m.IO
	// Capture the kind before completion: completeIO may retire the I/O
	// into a free list, after which io must not be read.
	kind := io.Kind
	addr := m.Addr
	if io.MarkDone(m.Index) {
		d.completeIO(now, io)
	}
	if kind == req.Write && !d.cfg.DisableGC {
		d.maybeStartGC(now, addr)
	}
	// No pump here: member completions arrive in bursts within one
	// transaction, and the controller's TxnDone callback pumps once for
	// all of them — scheduling work per transaction, not per page.
}

func (d *Device) completeIO(now sim.Time, io *req.IO) {
	io.Done = now
	d.latency.Observe(float64(io.Latency()))
	if io.Kind == req.Read {
		d.bytesRead += io.Bytes(d.cfg.Geo.PageSize)
	} else {
		d.bytesWritten += io.Bytes(d.cfg.Geo.PageSize)
	}
	d.iosDone++
	if io.Failed {
		d.failedIOs++
	}
	d.lastCompletion = now
	if d.cfg.CollectSeries {
		p := metrics.SeriesPoint{Index: d.iosDone, Arrival: io.Arrival, Latency: io.Latency()}
		if w := d.cfg.SeriesWindow; w > 0 && len(d.series) >= w {
			// Windowed mode: overwrite the oldest point so long runs hold
			// at most w points instead of one per completed I/O.
			d.series[d.seriesHead] = p
			d.seriesHead++
			if d.seriesHead == w {
				d.seriesHead = 0
			}
		} else {
			d.series = append(d.series, p)
		}
	}
	d.queue.Release(now, io)
	d.account(now)
	d.inflight--
	if d.onRetire != nil {
		// The I/O has left the queue, the ready index, and every
		// controller; the hook's owner may recycle it from here on.
		// Retire before resuming admission: with a bounded backlog the
		// next source pull happens synchronously inside drainBacklog,
		// and it should find this object in the free list.
		d.onRetire(io)
	}
	d.drainBacklog(now)
}

// result snapshots the measurements after the run. Duration ends at the
// last I/O completion so trailing idle time does not dilute throughput.
func (d *Device) result() *metrics.Result {
	end := d.lastCompletion
	if end == 0 {
		end = d.eng.Now()
	}
	return d.resultAt(end)
}

// Snapshot reports the measurements accumulated so far without disturbing
// the run: callable mid-simulation (between events) for live bandwidth,
// latency and utilization readings. Mid-run durations use the current
// simulation time so windowed rates are well defined.
func (d *Device) Snapshot() *metrics.Result {
	d.account(d.eng.Now())
	return d.resultAt(d.eng.Now())
}

// seriesSnapshot returns the collected series in completion order. Exact
// mode hands out the accumulated slice (the device is done appending by
// result time; mid-run snapshots only read a prefix); windowed mode
// unrolls the ring into a fresh in-order copy, so the reusable ring never
// escapes into a Result.
func (d *Device) seriesSnapshot() []metrics.SeriesPoint {
	if d.cfg.SeriesWindow <= 0 {
		return d.series
	}
	if len(d.series) == 0 {
		return nil
	}
	out := make([]metrics.SeriesPoint, 0, len(d.series))
	out = append(out, d.series[d.seriesHead:]...)
	out = append(out, d.series[:d.seriesHead]...)
	return out
}

func (d *Device) resultAt(end sim.Time) *metrics.Result {
	// Pre-sorting the live histogram lets the clone below inherit sorted
	// storage: the Result's percentile reads then skip the copy-on-sort.
	// Appends after this snapshot don't reorder the sorted prefix, so the
	// clone stays consistent even while the run continues.
	d.latency.PreSort()
	var lat sim.Histogram
	if d.transientResults {
		lat = d.latency.Borrow()
	} else {
		lat = d.latency.Clone()
	}
	r := &metrics.Result{
		Scheduler:           d.sch.Name(),
		Duration:            end,
		IOsCompleted:        d.iosDone,
		BytesRead:           d.bytesRead,
		BytesWritten:        d.bytesWritten,
		Latency:             lat,
		QueueFullTime:       d.queue.FullTime(end),
		StaleRetranslations: d.staleFixes,
		EmergencyGCs:        d.emergencyGCs,
		GC:                  d.fl.Stats(),
		FailedIOs:           d.failedIOs,
		DegradedMode:        d.fl.Degraded(),
		Series:              d.seriesSnapshot(),
	}
	samples := d.sampleBuf[:0]
	for ch := range d.ctrls {
		for off := 0; off < d.cfg.Geo.ChipsPerChan; off++ {
			chip := d.ctrls[ch].chip(d.cfg.Geo.ChipAt(ch, off))
			st := chip.Stats()
			samples = append(samples, metrics.ChipSample{
				Busy:              st.BusyAll.Total(end),
				CellActive:        st.CellActive.Total(end),
				BusActive:         st.BusActive.Total(end),
				BusWait:           st.BusWait,
				PlaneUseIntegral:  st.PlaneUse.Integral(end),
				Txns:              st.Txns,
				TxnsByClass:       st.TxnsByClass,
				ReqsByClass:       st.ReqsByClass,
				Requests:          st.Requests,
				ReadRetries:       st.ReadRetries,
				ReadUncorrectable: st.ReadUncorrectable,
				ProgramFails:      st.ProgramFails,
				EraseFails:        st.EraseFails,
			})
		}
	}
	r.Compute(d.cfg.Geo, samples, d.busyIntegral, d.sysBusyTime)
	d.sampleBuf = samples
	return r
}
