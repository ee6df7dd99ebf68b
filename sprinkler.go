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
// Phases, Burst, Zipf, ReadRatio, Resize — and every source is Resettable:
// Reset(seed) rewinds it to replay exactly what a fresh construction with
// that seed would emit, which is what lets sweeps pool sources across
// cells (see DeviceArena and the SourceSpec constructors). Metrics memory
// is O(1): latency percentiles are exact up to Config's MetricsSampleCap
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
//	cells := sprinkler.Sweep(cfg, sprinkler.Schedulers(), sprinkler.Workloads(), 3000)
//	results := sprinkler.Runner{}.Run(ctx, cells)
package sprinkler

import (
	"context"
	"fmt"
	"math"

	"sprinkler/internal/core"
	"sprinkler/internal/ftl"
	"sprinkler/internal/req"
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

	// MaxBacklog bounds host-side requests buffered ahead of admission
	// in source-driven runs; zero means unbounded. Set it for open-loop
	// overload scenarios (arrival rate above service rate) so the
	// host-side buffer stays flat: the source is paused at the bound and
	// resumed as admissions drain. Arrival timestamps — and therefore
	// measured latencies — are unaffected.
	MaxBacklog int

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
	// base sense time (values below 1 behave as 1).
	ReadRetryMax  int `json:"readRetryMax,omitempty"`
	ReadRetryMult int `json:"readRetryMult,omitempty"`

	// RewriteMax bounds program-fail recovery: how many times one page
	// write may be remapped and re-issued before the host I/O is failed.
	RewriteMax int `json:"rewriteMax,omitempty"`

	// OutagePeriodNS/OutageDurNS define per-die transient outage windows:
	// a flash operation that would start inside a die's window waits it
	// out. Zero disables outages.
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
func (f FaultSpec) internal() ssd.FaultSpec {
	return ssd.FaultSpec{
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

// check validates the spec with public field names in the errors.
func (f FaultSpec) check() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ReadFailProb", f.ReadFailProb},
		{"ProgramFailProb", f.ProgramFailProb},
		{"EraseFailProb", f.EraseFailProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("sprinkler: Config.Faults.%s %g outside [0, 1]", p.name, p.v)
		}
	}
	if f.ReadRetryMax < 0 || f.ReadRetryMult < 0 || f.RewriteMax < 0 {
		return fmt.Errorf("sprinkler: Config.Faults retry and rewrite bounds must be non-negative")
	}
	if f.OutagePeriodNS < 0 || f.OutageDurNS < 0 {
		return fmt.Errorf("sprinkler: Config.Faults outage window must be non-negative")
	}
	if f.OutageDurNS > 0 && f.OutagePeriodNS == 0 {
		return fmt.Errorf("sprinkler: Config.Faults.OutageDurNS set without OutagePeriodNS")
	}
	if f.OutagePeriodNS > 0 && f.OutageDurNS >= f.OutagePeriodNS {
		return fmt.Errorf("sprinkler: Config.Faults.OutageDurNS %d must be shorter than OutagePeriodNS %d",
			f.OutageDurNS, f.OutagePeriodNS)
	}
	if f.SpareBlockFrac < 0 || f.SpareBlockFrac >= 1 {
		return fmt.Errorf("sprinkler: Config.Faults.SpareBlockFrac %g outside [0, 1)", f.SpareBlockFrac)
	}
	return nil
}

// TotalPages returns the platform's physical page count.
func (c Config) TotalPages() int64 {
	return int64(c.Channels) * int64(c.ChipsPerChan) * int64(c.DiesPerChip) *
		int64(c.PlanesPerDie) * int64(c.BlocksPerPlane) * int64(c.PagesPerBlock)
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

// toInternal converts the public config and builds its scheduler.
func (c Config) toInternal() (ssd.Config, sched.Scheduler, error) {
	cfg, err := c.internalConfig()
	if err != nil {
		return ssd.Config{}, nil, err
	}
	s, err := c.newScheduler()
	if err != nil {
		return ssd.Config{}, nil, err
	}
	return cfg, s, nil
}

// internalConfig converts the public config (scheduler excluded).
func (c Config) internalConfig() (ssd.Config, error) {
	cfg := ssd.DefaultConfig()
	cfg.Geo.Channels = c.Channels
	cfg.Geo.ChipsPerChan = c.ChipsPerChan
	cfg.Geo.DiesPerChip = c.DiesPerChip
	cfg.Geo.PlanesPerDie = c.PlanesPerDie
	cfg.Geo.BlocksPerPlane = c.BlocksPerPlane
	cfg.Geo.PagesPerBlock = c.PagesPerBlock
	cfg.Geo.PageSize = c.PageSize
	cfg.QueueDepth = c.QueueDepth
	cfg.MaxBacklog = c.MaxBacklog
	cfg.LogicalPages = c.LogicalPages
	cfg.GCFreeTarget = c.GCFreeTarget
	cfg.MetricsSampleCap = c.MetricsSampleCap
	cfg.DisableGC = c.DisableGC
	cfg.Faults = c.Faults.internal()
	cfg.CollectSeries = c.CollectSeries
	cfg.SeriesWindow = c.SeriesWindow

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
	return cfg, nil
}

// newScheduler builds a fresh scheduler for the configured kind.
func (c Config) newScheduler() (sched.Scheduler, error) {
	switch c.Scheduler {
	case VAS:
		return sched.NewVAS(), nil
	case PAS:
		return sched.NewPAS(), nil
	case SPK1:
		return core.NewSPK1(), nil
	case SPK2:
		return core.NewSPK2(), nil
	case SPK3, "":
		return core.NewSPK3(), nil
	default:
		return nil, fmt.Errorf("sprinkler: unknown scheduler %q", c.Scheduler)
	}
}

// resolveKind normalizes the default scheduler selection.
func resolveKind(k SchedulerKind) SchedulerKind {
	if k == "" {
		return SPK3
	}
	return k
}

// Request is one host I/O request.
type Request struct {
	// ArrivalNS is the arrival time in nanoseconds from simulation start.
	ArrivalNS int64
	// Write selects the direction (false = read).
	Write bool
	// LPN is the first logical page; Pages the length in pages.
	LPN   int64
	Pages int
	// FUA marks a force-unit-access request that must not be reordered.
	FUA bool
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
	// reuses them (per-run selection state is dropped through
	// sched.StateResetter on every Reset) instead of rebuilding.
	scheds map[SchedulerKind]sched.Scheduler
}

// New builds a Device from the configuration, validating it first.
func New(cfg Config) (*Device, error) { return newWithMeta(cfg, nil) }

// newWithMeta builds a Device, reusing a retained FTL block-metadata arena
// when the DeviceArena kept one for the topology (nil builds fresh).
func newWithMeta(cfg Config, meta *ftl.BlockMeta) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	icfg, s, err := cfg.toInternal()
	if err != nil {
		return nil, err
	}
	inner, err := ssd.NewWithFTLMeta(icfg, s, meta)
	if err != nil {
		return nil, err
	}
	// Every public path (Run, Drain, Snapshot) flattens the internal
	// result immediately, so rendering may borrow live metric storage.
	inner.SetTransientResults(true)
	return &Device{
		inner:  inner,
		cfg:    cfg,
		scheds: map[SchedulerKind]sched.Scheduler{resolveKind(cfg.Scheduler): s},
	}, nil
}

// Reset re-initializes the device in place for a new run, as if freshly
// built with New(cfg) — but reusing every geometry-sized structure the
// first construction allocated (event slab, controller and chip state,
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
	if err := cfg.Validate(); err != nil {
		return err
	}
	icfg, err := cfg.internalConfig()
	if err != nil {
		return err
	}
	kind := resolveKind(cfg.Scheduler)
	sch := d.scheds[kind]
	if sch == nil {
		if sch, err = cfg.newScheduler(); err != nil {
			return err
		}
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
// simulation clock, so the workload itself costs O(1) memory no matter
// how long it is (per-completed-I/O latency samples for exact
// percentiles still accumulate ~8 bytes each); bound an infinite source
// with Limit or cancel ctx.
//
// On context cancellation Run returns the measurements accumulated so
// far together with ctx's error, so a cancelled run is still observable.
func (d *Device) Run(ctx context.Context, src Source) (*Result, error) {
	return d.runInto(ctx, src, new(Result))
}

// runInto is Run rendering the measurements into a caller-supplied
// Result object — the ResultArena path. Every field of out is
// overwritten before it is returned.
func (d *Device) runInto(ctx context.Context, src Source, out *Result) (*Result, error) {
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
			return publicResultInto(out, res), err
		}
		return nil, err
	}
	if a.err != nil {
		return nil, a.err
	}
	return publicResultInto(out, res), nil
}

// RunRequests replays a fully materialized request list — the original
// entry point, retained as a thin wrapper over Run.
func (d *Device) RunRequests(requests []Request) (*Result, error) {
	return d.Run(context.Background(), SliceSource(requests))
}

// Workloads returns the names of the paper's Table 1 trace catalogue.
func Workloads() []string {
	var names []string
	for _, w := range trace.Table1() {
		names = append(names, w.Name)
	}
	return names
}

// GenerateWorkload synthesizes n requests of a named Table 1 workload
// sized for this configuration's logical space. It is a materializing
// wrapper over NewWorkloadSource; prefer the Source for long workloads.
func (c Config) GenerateWorkload(name string, n int, seed uint64) ([]Request, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sprinkler: GenerateWorkload needs a positive request count, got %d", n)
	}
	src, err := c.NewWorkloadSource(WorkloadSpec{Name: name, Requests: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, n)
	for {
		r, ok := src.Next()
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// SequentialReads builds n back-to-back reads of the given size.
func SequentialReads(n, pages int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{LPN: int64(i * pages), Pages: pages}
	}
	return out
}

// SequentialWrites builds n back-to-back writes of the given size.
func SequentialWrites(n, pages int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Write: true, LPN: int64(i * pages), Pages: pages}
	}
	return out
}

func fromIOs(ios []*req.IO) []Request {
	out := make([]Request, len(ios))
	for i, io := range ios {
		out[i] = Request{
			ArrivalNS: int64(io.Arrival),
			Write:     io.Kind == req.Write,
			LPN:       int64(io.Start),
			Pages:     io.Pages,
			FUA:       io.FUA,
		}
	}
	return out
}
