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

// The two fixed NVMHC costs of the model. composeLatency is one memory
// request's data movement between host and SSD (memory request
// composition, §2.1): ~2 KB over an 8 GB/s host link plus overhead.
// Compositions serialize on the DMA engine. retranslatePenalty is charged
// at commit time when a scheduler without the readdressing callback
// (§4.3) holds a stale physical address after live-data migration.
const (
	composeLatency     sim.Time = 200
	retranslatePenalty          = 5 * sim.Microsecond
)

// Config parameterizes a Device.
type Config struct {
	Geo flash.Geometry
	Tim flash.Timing

	// QueueDepth is the device-level queue's tag capacity (§2.1). SATA
	// NCQ exposes 32 tags; NVMe-class devices more. Default 64.
	QueueDepth int

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
	Faults flash.FaultConfig

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
		Geo:        flash.DefaultGeometry(),
		Tim:        flash.DefaultTiming(),
		QueueDepth: 64,
	}
}

// Validate checks the configuration: every rule New and Reset apply,
// the FTL's and the fault model's included. Errors name each field the
// way the public sprinkler.Config does.
func (c *Config) Validate() error {
	if err := c.ftlConfig().Validate(); err != nil {
		return err
	}
	if err := c.Tim.Validate(); err != nil {
		return err
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("ssd: QueueDepth must be positive, got %d (the device-level queue needs at least one tag)", c.QueueDepth)
	}
	if c.LogicalPages < 0 {
		return fmt.Errorf("ssd: LogicalPages must be non-negative, got %d", c.LogicalPages)
	}
	if total := c.Geo.TotalPages(); c.LogicalPages > total {
		return fmt.Errorf("ssd: LogicalPages %d exceeds the %d physical pages", c.LogicalPages, total)
	}
	if c.GCFreeTarget < 0 {
		return fmt.Errorf("ssd: GCFreeTarget must be non-negative, got %d", c.GCFreeTarget)
	}
	if c.SeriesWindow < 0 {
		return fmt.Errorf("ssd: SeriesWindow must be non-negative, got %d", c.SeriesWindow)
	}
	return c.Faults.Validate()
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
