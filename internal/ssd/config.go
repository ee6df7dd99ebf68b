// Package ssd assembles the full many-chip SSD model of Figure 2: the
// NVMHC with its device-level queue and DMA engine, the embedded core
// running the FTL, per-channel flash controllers, the shared channel buses
// and the NAND chips — and drives a workload through it under a pluggable
// device-level I/O scheduler.
package ssd

import (
	"fmt"

	"sprinkler/internal/flash"
	"sprinkler/internal/ftl"
	"sprinkler/internal/sim"
)

// Config parameterizes a Device.
type Config struct {
	Geo flash.Geometry
	Tim flash.Timing

	// QueueDepth is the device-level queue's tag capacity (§2.1). SATA
	// NCQ exposes 32 tags; NVMe-class devices more. Default 64.
	QueueDepth int

	// ComposeLatency models one memory request's data movement between
	// host and SSD (memory request composition, §2.1). Compositions
	// serialize on the DMA engine.
	ComposeLatency sim.Time

	// RetranslatePenalty is charged at commit time when a scheduler
	// without the readdressing callback (§4.3) holds a stale physical
	// address after live-data migration.
	RetranslatePenalty sim.Time

	// LogicalPages bounds the logical address space. Zero defaults to
	// ~90% of the physical pages, leaving over-provisioning headroom.
	LogicalPages int64

	// GCFreeTarget is the per-plane free-block threshold that triggers
	// background garbage collection. Zero uses the FTL default.
	GCFreeTarget int

	// Allocation picks the FTL's dynamic page-allocation scheme.
	Allocation ftl.Allocation

	// MetricsSampleCap bounds the exact latency samples the device
	// retains: runs shorter than the cap report exact percentiles, longer
	// runs switch to a fixed-memory log-bucketed estimator so metrics
	// memory is O(1) however long the run. Zero selects
	// sim.DefaultHistogramCap; negative streams into buckets from the
	// first sample.
	MetricsSampleCap int

	// DisableGC turns background garbage collection off (pristine-state
	// experiments).
	DisableGC bool

	// Faults parameterizes deterministic fault injection (read retries,
	// program/erase failures, transient die outages, spare-block
	// provisioning). The zero value disables the model entirely and is
	// byte-identical to a fault-free build.
	Faults FaultSpec

	// CollectSeries records one SeriesPoint per completed I/O (Figure 12).
	CollectSeries bool

	// SeriesWindow bounds the collected series to the most recent N
	// completed I/Os (a ring buffer), so series collection is safe on
	// arbitrarily long runs. Zero keeps the exact one-point-per-I/O
	// behaviour. Ignored unless CollectSeries is set.
	SeriesWindow int
}

// DefaultConfig mirrors §5.1: 2 KB pages, 2 dies × 4 planes, ONFI 2.x
// channels, with 64 chips over 8 channels.
func DefaultConfig() Config {
	return Config{
		Geo:                flash.DefaultGeometry(),
		Tim:                flash.DefaultTiming(),
		QueueDepth:         64,
		ComposeLatency:     200, // ~2KB over an 8 GB/s host link + overhead
		RetranslatePenalty: 5 * sim.Microsecond,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Geo.Validate(); err != nil {
		return err
	}
	if err := c.Tim.Validate(); err != nil {
		return err
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("ssd: QueueDepth %d", c.QueueDepth)
	}
	if c.ComposeLatency < 0 {
		return fmt.Errorf("ssd: negative ComposeLatency")
	}
	if c.RetranslatePenalty < 0 {
		return fmt.Errorf("ssd: negative RetranslatePenalty")
	}
	if c.LogicalPages < 0 {
		return fmt.Errorf("ssd: negative LogicalPages")
	}
	if c.LogicalPages > c.Geo.TotalPages() {
		return fmt.Errorf("ssd: LogicalPages %d exceeds physical %d", c.LogicalPages, c.Geo.TotalPages())
	}
	if c.SeriesWindow < 0 {
		return fmt.Errorf("ssd: negative SeriesWindow")
	}
	if err := c.Faults.validate(); err != nil {
		return err
	}
	return nil
}

// FaultSpec parameterizes the deterministic fault-injection subsystem. The
// zero value disables every mechanism: no RNG stream is created, no draws
// are made, and results are byte-identical to a fault-free build.
type FaultSpec struct {
	// Per-member failure probabilities for the three flash operations.
	// A failed read sense enters the retry ladder; a failed program
	// triggers a page rewrite to a fresh block; a failed (GC) erase
	// retires the block to the spare pool.
	ReadFailProb    float64
	ProgramFailProb float64
	EraseFailProb   float64

	// ReadRetryMax bounds the read-retry ladder (0 = a failing sense is
	// immediately uncorrectable); ReadRetryMult scales the escalating
	// retry sense time (retry r costs r*mult × the base cell time; values
	// below 1 behave as 1).
	ReadRetryMax  int
	ReadRetryMult int

	// RewriteMax bounds program-fail recovery: how many times one page
	// write may be remapped and re-issued before the host I/O is failed.
	RewriteMax int

	// OutagePeriod/OutageDur (ns) define per-die transient outage windows;
	// a cell phase that would start during a die's window waits it out.
	// Zero period or duration disables outages.
	OutagePeriod sim.Time
	OutageDur    sim.Time

	// SpareBlockFrac reserves this fraction of every plane's blocks as
	// bad-block replacement spares; retirements consume them, and
	// exhaustion degrades the drive to read-only mode.
	SpareBlockFrac float64

	// Seed is the base fault seed; each chip derives an independent
	// deterministic stream from it.
	Seed uint64
}

// Enabled reports whether any fault mechanism is configured.
func (fs *FaultSpec) Enabled() bool {
	return fs.flashConfig().Enabled() || fs.SpareBlockFrac > 0
}

// flashConfig maps the spec onto the chip-level fault model.
func (fs *FaultSpec) flashConfig() flash.FaultConfig {
	return flash.FaultConfig{
		ReadFailProb:    fs.ReadFailProb,
		ProgramFailProb: fs.ProgramFailProb,
		EraseFailProb:   fs.EraseFailProb,
		ReadRetryMax:    fs.ReadRetryMax,
		ReadRetryMult:   fs.ReadRetryMult,
		OutagePeriod:    fs.OutagePeriod,
		OutageDur:       fs.OutageDur,
		Seed:            fs.Seed,
	}
}

// Caps on the fault knobs that stretch simulated time, each ≥ 8× every
// value the repo runs (outage periods ≤ 1 ms, retry ladders ≤ 4 × 3). A
// full ladder costs Σ_{r=1..32} r·32·tR = 16,896 × 20 µs ≈ 0.34 s and an
// outage wait < 1 s, so one flash operation stays under ~1.4 s: with the
// public API holding arrivals and the clock below 2^62 ns, the int64
// clock's remaining 2^62 ns outlast billions of such operations.
const (
	MaxOutagePeriod = sim.Second
	MaxReadRetry    = 32 // caps ReadRetryMax and ReadRetryMult alike
)

func (fs *FaultSpec) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ReadFailProb", fs.ReadFailProb},
		{"ProgramFailProb", fs.ProgramFailProb},
		{"EraseFailProb", fs.EraseFailProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("ssd: fault %s %g outside [0, 1]", p.name, p.v)
		}
	}
	if fs.ReadRetryMax < 0 || fs.ReadRetryMult < 0 || fs.ReadRetryMax > MaxReadRetry || fs.ReadRetryMult > MaxReadRetry {
		return fmt.Errorf("ssd: fault ReadRetryMax %d and ReadRetryMult %d must lie in [0, %d]", fs.ReadRetryMax, fs.ReadRetryMult, MaxReadRetry)
	}
	if fs.RewriteMax < 0 {
		return fmt.Errorf("ssd: negative fault RewriteMax")
	}
	if fs.OutagePeriod < 0 || fs.OutageDur < 0 || fs.OutagePeriod > MaxOutagePeriod {
		return fmt.Errorf("ssd: fault outage window %d/%d outside [0, %d]", int64(fs.OutageDur), int64(fs.OutagePeriod), int64(MaxOutagePeriod))
	}
	if fs.OutageDur > 0 && fs.OutagePeriod == 0 {
		return fmt.Errorf("ssd: fault OutageDur set without OutagePeriod")
	}
	if fs.OutagePeriod > 0 && fs.OutageDur >= fs.OutagePeriod {
		return fmt.Errorf("ssd: fault OutageDur %d must be shorter than OutagePeriod %d",
			int64(fs.OutageDur), int64(fs.OutagePeriod))
	}
	if fs.SpareBlockFrac < 0 || fs.SpareBlockFrac >= 1 {
		return fmt.Errorf("ssd: fault SpareBlockFrac %g outside [0, 1)", fs.SpareBlockFrac)
	}
	return nil
}

// logicalPages resolves the default logical space.
func (c *Config) logicalPages() int64 {
	if c.LogicalPages > 0 {
		return c.LogicalPages
	}
	return c.Geo.TotalPages() * 9 / 10
}

// ftlConfig builds the FTL configuration.
func (c *Config) ftlConfig() ftl.Config {
	fc := ftl.DefaultConfig(c.Geo)
	if c.GCFreeTarget > 0 {
		fc.GCFreeTarget = c.GCFreeTarget
	}
	fc.LogicalPages = c.logicalPages()
	fc.Allocation = c.Allocation
	fc.SpareBlockFrac = c.Faults.SpareBlockFrac
	return fc
}
