// Package sprinkler is a from-scratch reproduction of "Sprinkler:
// Maximizing Resource Utilization in Many-Chip Solid State Disks"
// (Jung & Kandemir, HPCA 2014): an event-driven many-chip SSD simulator
// with the paper's device-level I/O schedulers.
//
// The library models the full SSD of the paper — channels, chips, dies,
// planes, ONFI-style bus timing, MLC program-latency variation, a
// page-level FTL with garbage collection — and five NVMHC schedulers:
//
//	VAS   virtual address scheduler (FIFO baseline)
//	PAS   physical address scheduler (coarse-grain out-of-order baseline)
//	SPK1  Sprinkler with FARO only (FLP-aware request over-commitment)
//	SPK2  Sprinkler with RIOS only (resource-driven I/O scheduling)
//	SPK3  full Sprinkler (RIOS + FARO)
//
// Workloads are streams: a Source yields requests one at a time (slice
// replays, CSV trace files, infinite synthetic generators, open-loop
// Poisson arrivals), and the device pulls it one request ahead of the
// simulation clock — the workload itself is never materialized, however
// long it runs. Sources compose through deterministic combinators — Mix,
// Phases, Burst, Zipf, ReadRatio, Resize — and a source is a pure function
// of its seed: two builds with one seed emit the identical stream, which
// is what lets every scheduler of a sweep replay one trace (see Grid: a
// SourceSpec's New composes the combinators for one workload-axis point).
// Metrics memory is O(1): latency percentiles are exact up to Config's MetricsSampleCap
// and then stream into a fixed-size log-bucketed estimator, and completed
// request objects are recycled.
// The FTL's mapping tables cost ~8 bytes per logical/physical page over
// the touched address-space span (the same dense-page-table budget real
// FTL DRAM pays), independent of how long the workload runs.
//
// Quick start (bulk run):
//
//	cfg := sprinkler.DefaultConfig()
//	cfg.Scheduler = sprinkler.SPK3
//	dev, err := sprinkler.New(cfg)
//	if err != nil { ... }
//	src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "msnfs1", Requests: 100000})
//	if err != nil { ... }
//	res, err := dev.Run(ctx, src)
//	fmt.Printf("%.1f MB/s\n", res.BandwidthKBps/1024)
//
// Online session (submit requests while the simulation runs, observe
// mid-run metrics):
//
//	sess, err := sprinkler.Open(cfg)
//	for _, r := range batch { sess.Submit(r) }
//	sess.Advance(10_000_000)          // 10 ms of simulated time
//	snap := sess.Snapshot()           // bandwidth/latency/utilization so far
//	res, err := sess.Drain(ctx)       // finish everything, final Result
//
// Sweeps (many cells, all CPU cores, deterministic seeds):
//
//	cells := sprinkler.Grid{
//	    Base:       cfg,
//	    Schedulers: sprinkler.Schedulers(),
//	    Workloads:  sprinkler.Workloads(),
//	    Requests:   3000,
//	}.Cells()
//	results := sprinkler.Runner{}.Run(ctx, cells)
package sprinkler

import (
	"context"
	"fmt"
	"math"

	"sprinkler/internal/core"
	"sprinkler/internal/flash"
	"sprinkler/internal/ftl"
	"sprinkler/internal/sched"
	"sprinkler/internal/ssd"
	"sprinkler/internal/trace"
)

// SchedulerKind selects the device-level I/O scheduler.
type SchedulerKind string

// The five schedulers of the paper's evaluation (§5.1).
const (
	VAS  SchedulerKind = "VAS"
	PAS  SchedulerKind = "PAS"
	SPK1 SchedulerKind = "SPK1"
	SPK2 SchedulerKind = "SPK2"
	SPK3 SchedulerKind = "SPK3"
)

// Schedulers lists every available SchedulerKind.
func Schedulers() []SchedulerKind { return []SchedulerKind{VAS, PAS, SPK1, SPK2, SPK3} }

// AllocationScheme selects the FTL's dynamic page-allocation (striping)
// scheme — which resource dimension consecutive writes advance through
// first. The empty string means ChannelFirst.
type AllocationScheme string

// The supported allocation schemes (see the paper's references [13, 16,
// 36] on page-allocation strategy impact).
const (
	ChannelFirst AllocationScheme = "channel-first"
	WayFirst     AllocationScheme = "way-first"
	PlaneFirst   AllocationScheme = "plane-first"
)

// Config describes the SSD platform. DefaultConfig mirrors §5.1 of the
// paper: 64 chips over 8 channels, 2 dies × 4 planes per chip, 2 KB pages,
// ONFI 2.x channel timing, MLC programming between 200 µs and 2.2 ms.
type Config struct {
	// Platform geometry.
	Channels       int
	ChipsPerChan   int
	DiesPerChip    int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int

	// QueueDepth is the device-level queue's tag capacity.
	QueueDepth int

	// Scheduler picks the NVMHC scheduling strategy.
	Scheduler SchedulerKind

	// Allocation picks the FTL page-allocation scheme (default
	// ChannelFirst).
	Allocation AllocationScheme

	// LogicalPages bounds the logical address space. Zero defaults to
	// ~90% of the physical pages, leaving over-provisioning headroom.
	LogicalPages int64

	// GCFreeTarget is the per-plane free-block threshold that triggers
	// background garbage collection. Zero uses the FTL default.
	GCFreeTarget int

	// MetricsSampleCap bounds the exact latency samples a run retains.
	// Below the cap percentiles are exact (and byte-identical to earlier
	// releases); past it the run switches to a fixed-memory log-bucketed
	// estimator with <= 0.8% relative quantile error, so arbitrarily long
	// runs hold O(1) metrics memory. Zero selects the default cap (2^20
	// samples, ~8 MB); negative streams into buckets from the first
	// sample.
	MetricsSampleCap int

	// DisableGC turns background garbage collection off.
	DisableGC bool

	// Faults configures deterministic flash fault injection (read-retry
	// ladders, program/erase failures, transient die outages, spare-block
	// provisioning with degraded-mode fallback). The zero value disables
	// the model entirely and is byte-identical to a fault-free build.
	Faults FaultSpec

	// CollectSeries records a per-I/O latency series in the result.
	CollectSeries bool

	// SeriesWindow bounds the collected series to the most recent N
	// completed I/Os (a ring buffer), making series collection safe on
	// arbitrarily long runs. Zero keeps the exact one-point-per-I/O
	// series. Ignored unless CollectSeries is set.
	SeriesWindow int
}

// FaultSpec configures deterministic flash fault injection. Faults are
// drawn from per-chip deterministic streams derived from Seed in chip-local
// order, so a fault schedule is a pure function of the configuration:
// fresh, arena-recycled and snapshot-hydrated devices all replay it
// byte-for-byte. The JSON tags make the spec part of the daemon's
// wire format (session open requests).
type FaultSpec struct {
	// ReadFailProb, ProgramFailProb and EraseFailProb are per-member
	// failure probabilities for the three flash operations. A failing
	// read sense enters the retry ladder; a failed program is remapped to
	// a fresh block and rewritten; a failed erase retires the block to
	// the spare pool.
	ReadFailProb    float64 `json:"readFailProb,omitempty"`
	ProgramFailProb float64 `json:"programFailProb,omitempty"`
	EraseFailProb   float64 `json:"eraseFailProb,omitempty"`

	// ReadRetryMax bounds the read-retry ladder (0 = a failing sense is
	// immediately uncorrectable); retry r costs r × ReadRetryMult × the
	// base sense time (values below 1 behave as 1). Both are at most 32.
	ReadRetryMax  int `json:"readRetryMax,omitempty"`
	ReadRetryMult int `json:"readRetryMult,omitempty"`

	// RewriteMax bounds program-fail recovery: how many times one page
	// write may be remapped and re-issued before the host I/O is failed.
	RewriteMax int `json:"rewriteMax,omitempty"`

	// OutagePeriodNS/OutageDurNS define per-die transient outage windows:
	// a flash operation that would start inside a die's window waits it
	// out. Zero disables outages; the period is at most one second.
	OutagePeriodNS int64 `json:"outagePeriodNS,omitempty"`
	OutageDurNS    int64 `json:"outageDurNS,omitempty"`

	// SpareBlockFrac reserves this fraction of each plane's blocks as
	// bad-block replacement spares. Retirements consume spares; when they
	// run out the drive degrades to read-only mode (Result.DegradedMode):
	// pending and future writes are failed, reads keep being served.
	SpareBlockFrac float64 `json:"spareBlockFrac,omitempty"`

	// Seed is the base fault seed; each chip derives an independent
	// stream from it.
	Seed uint64 `json:"seed,omitempty"`
}

// internal maps the public fault spec onto the engine's.
func (f FaultSpec) internal() flash.FaultConfig {
	return flash.FaultConfig{
		ReadFailProb:    f.ReadFailProb,
		ProgramFailProb: f.ProgramFailProb,
		EraseFailProb:   f.EraseFailProb,
		ReadRetryMax:    f.ReadRetryMax,
		ReadRetryMult:   f.ReadRetryMult,
		RewriteMax:      f.RewriteMax,
		OutagePeriod:    simTime(f.OutagePeriodNS),
		OutageDur:       simTime(f.OutageDurNS),
		SpareBlockFrac:  f.SpareBlockFrac,
		Seed:            f.Seed,
	}
}

// TotalPages returns the platform's physical page count.
func (c Config) TotalPages() int64 {
	return int64(c.Channels) * int64(c.ChipsPerChan) * int64(c.DiesPerChip) *
		int64(c.PlanesPerDie) * int64(c.BlocksPerPlane) * int64(c.PagesPerBlock)
}

// LogicalSpan returns the logical address space in pages: LogicalPages
// when set, else 90% of the physical pages, leaving over-provisioning
// headroom. Zipf and Resize take it as their span.
func (c Config) LogicalSpan() int64 {
	if c.LogicalPages > 0 {
		return c.LogicalPages
	}
	return c.TotalPages() * 9 / 10
}

// DefaultConfig returns the paper's evaluation platform with SPK3.
func DefaultConfig() Config {
	base := ssd.DefaultConfig()
	return Config{
		Channels:       base.Geo.Channels,
		ChipsPerChan:   base.Geo.ChipsPerChan,
		DiesPerChip:    base.Geo.DiesPerChip,
		PlanesPerDie:   base.Geo.PlanesPerDie,
		BlocksPerPlane: base.Geo.BlocksPerPlane,
		PagesPerBlock:  base.Geo.PagesPerBlock,
		PageSize:       base.Geo.PageSize,
		QueueDepth:     base.QueueDepth,
		Scheduler:      SPK3,
	}
}

// internal converts the public config to the engine's and validates it:
// the scheduler and allocation names here, every other rule in
// ssd.Config.Validate.
func (c Config) internal() (ssd.Config, error) {
	switch c.Scheduler {
	case VAS, PAS, SPK1, SPK2, SPK3, "":
	default:
		return ssd.Config{}, fmt.Errorf("sprinkler: unknown scheduler %q (want one of %v)", c.Scheduler, Schedulers())
	}
	cfg := ssd.Config{
		Geo: flash.Geometry{
			Channels:       c.Channels,
			ChipsPerChan:   c.ChipsPerChan,
			DiesPerChip:    c.DiesPerChip,
			PlanesPerDie:   c.PlanesPerDie,
			BlocksPerPlane: c.BlocksPerPlane,
			PagesPerBlock:  c.PagesPerBlock,
			PageSize:       c.PageSize,
		},
		Tim:              flash.DefaultTiming(),
		QueueDepth:       c.QueueDepth,
		LogicalPages:     c.LogicalPages,
		GCFreeTarget:     c.GCFreeTarget,
		MetricsSampleCap: c.MetricsSampleCap,
		DisableGC:        c.DisableGC,
		Faults:           c.Faults.internal(),
		CollectSeries:    c.CollectSeries,
		SeriesWindow:     c.SeriesWindow,
	}
	switch c.Allocation {
	case ChannelFirst, "":
		cfg.Allocation = ftl.AllocChannelFirst
	case WayFirst:
		cfg.Allocation = ftl.AllocWayFirst
	case PlaneFirst:
		cfg.Allocation = ftl.AllocPlaneFirst
	default:
		return ssd.Config{}, fmt.Errorf("sprinkler: unknown allocation scheme %q", c.Allocation)
	}
	if err := cfg.Validate(); err != nil {
		return ssd.Config{}, fmt.Errorf("sprinkler: invalid Config: %w", err)
	}
	return cfg, nil
}

// newScheduler builds a fresh scheduler for a kind internal accepted.
func newScheduler(k SchedulerKind) sched.Scheduler {
	switch k {
	case VAS:
		return sched.NewVAS()
	case PAS:
		return sched.NewPAS()
	case SPK1:
		return core.NewSPK1()
	case SPK2:
		return core.NewSPK2()
	default:
		return core.NewSPK3()
	}
}

// resolveKind normalizes the default scheduler selection.
func resolveKind(k SchedulerKind) SchedulerKind {
	if k == "" {
		return SPK3
	}
	return k
}

// Request is one host I/O request. Run and Session reject a request with
// a negative ArrivalNS or LPN, or with Pages outside [1, 65536]. Its JSON
// names are sprinklerd's submit format, as WorkloadSpec's and FixedSpec's
// are its feed format.
type Request struct {
	// ArrivalNS is the arrival time in nanoseconds from simulation start.
	ArrivalNS int64 `json:"arrivalNS,omitempty"`
	// Write selects the direction (false = read).
	Write bool `json:"write,omitempty"`
	// LPN is the first logical page; Pages the length in pages.
	LPN   int64 `json:"lpn"`
	Pages int   `json:"pages"`
	// FUA marks a force-unit-access request that must not be reordered.
	FUA bool `json:"fua,omitempty"`
}

// Device is a simulated many-chip SSD. A Device runs one workload at a
// time; after a run drains it can be Reset and reused for the next one —
// the cheap path mass sweeps take through DeviceArena. For online
// submission and mid-run observation, use Open and the Session API
// instead.
type Device struct {
	inner *ssd.Device
	cfg   Config

	// adapter persists across runs: its retired-I/O free list keeps the
	// request working set hot from one run to the next, so a sweep cell on
	// an arena-recycled device admits at zero steady-state allocations
	// from its first request (the pool would otherwise re-warm from empty
	// every run).
	adapter ioAdapter

	// scheds caches one scheduler instance per kind ever run on this
	// device, so a sweep alternating schedulers on a recycled device
	// reuses them (per-run scratch is dropped through
	// sched.StateResetter on every Reset) instead of rebuilding.
	scheds map[SchedulerKind]sched.Scheduler
}

// New builds a Device from the configuration, validating it first.
func New(cfg Config) (*Device, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	kind := resolveKind(cfg.Scheduler)
	s := newScheduler(kind)
	inner, err := ssd.New(icfg, s)
	if err != nil {
		return nil, err
	}
	return &Device{
		inner:  inner,
		cfg:    cfg,
		scheds: map[SchedulerKind]sched.Scheduler{kind: s},
	}, nil
}

// Reset re-initializes the device in place for a new run, as if freshly
// built with New(cfg) — but reusing every geometry-sized structure the
// first construction allocated (event heap, controller and chip state,
// FTL metadata pools and mapping tables, queue tags, scheduler indexes),
// which is what makes device construction effectively free across the
// cells of a sweep. The platform geometry must match the device's; every
// per-run knob (scheduler, queue depth, GC policy, allocation scheme,
// metrics options) may change. When the scheduler kind is unchanged the
// existing scheduler instance is recycled too, with its per-run selection
// state dropped.
//
// A reset device produces byte-identical Results to a fresh one — the
// reuse-parity tests pin this for every scheduler. The previous run must
// have completed (or never started); resetting mid-run is a caller bug.
func (d *Device) Reset(cfg Config) error {
	icfg, err := cfg.internal()
	if err != nil {
		return err
	}
	kind := resolveKind(cfg.Scheduler)
	sch := d.scheds[kind]
	if sch == nil {
		sch = newScheduler(kind)
		d.scheds[kind] = sch
	}
	if err := d.inner.Reset(icfg, sch); err != nil {
		return err
	}
	d.cfg = cfg
	return nil
}

// Config returns the configuration the device is currently built for.
func (d *Device) Config() Config { return d.cfg }

// Platform builds the paper's §5.1 evaluation platform for a total chip
// count, spreading chips over channels the way the paper's platforms do
// (64 chips = 8 channels × 8; 1024 chips = 32 × 32). Per-plane block
// counts are kept modest so very large platforms stay within memory;
// capacity is irrelevant to scheduling behaviour.
func Platform(chips int) Config {
	cfg := DefaultConfig()
	channels := int(math.Round(math.Sqrt(float64(chips))))
	if channels < 1 {
		channels = 1
	}
	if channels > 32 {
		channels = 32
	}
	for chips%channels != 0 {
		channels--
	}
	cfg.Channels = channels
	cfg.ChipsPerChan = chips / channels
	cfg.BlocksPerPlane = 256
	cfg.PagesPerBlock = 128
	return cfg
}

// NumChips returns the platform's total flash chip count.
func (d *Device) NumChips() int { return d.inner.Geo().NumChips() }

// Precondition fills fillFrac of the logical space and overwrites
// churnFrac of it, fragmenting the physical layout so garbage collection
// runs during the subsequent workload (§5.9).
func (d *Device) Precondition(fillFrac, churnFrac float64, seed uint64) {
	d.inner.Precondition(fillFrac, churnFrac, seed)
}

// Run streams the source to completion and returns the measurements —
// the primary entry point. The source is pulled one request ahead of the
// simulation clock and at most QueueDepth requests ahead of admission to
// the device-level queue: while that many wait on the host side the pull
// pauses. Arrival timestamps are kept, so a request pulled late still
// counts its host-side wait in its latency. The workload itself therefore
// costs O(1) memory no matter how long it is or how far its arrival rate
// outruns the device (per-completed-I/O latency samples for exact
// percentiles still accumulate ~8 bytes each); bound an infinite source
// with Limit or cancel ctx.
//
// On context cancellation Run returns the measurements accumulated so
// far together with ctx's error, so a cancelled run is still observable.
func (d *Device) Run(ctx context.Context, src Source) (*Result, error) {
	// The adapter is the device's own, reused across runs: completed
	// request objects recycle into its free list during the run, and the
	// warmed list carries over to the device's next run (through a
	// DeviceArena, to the next sweep cell). The retire hook is
	// uninstalled afterwards and the source reference dropped, so a
	// finished run pins neither.
	a := &d.adapter
	a.src, a.next, a.err = src, 0, nil
	d.inner.SetIORetire(a.pool.put)
	defer func() {
		d.inner.SetIORetire(nil)
		a.src = nil
	}()
	res, err := d.inner.RunContext(ctx, a)
	if err != nil {
		if res != nil {
			return publicResult(res), err
		}
		return nil, err
	}
	if a.err != nil {
		return nil, a.err
	}
	return publicResult(res), nil
}

// Workloads returns the names of the paper's Table 1 trace catalogue.
func Workloads() []string {
	var names []string
	for _, w := range trace.Table1() {
		names = append(names, w.Name)
	}
	return names
}
