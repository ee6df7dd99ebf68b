package sprinkler

import "fmt"

// Validate checks the platform configuration, returning a descriptive
// error for degenerate geometry or queue settings. New and Open validate
// automatically; call it directly to vet configurations built elsewhere.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", c.Channels},
		{"ChipsPerChan", c.ChipsPerChan},
		{"DiesPerChip", c.DiesPerChip},
		{"PlanesPerDie", c.PlanesPerDie},
		{"BlocksPerPlane", c.BlocksPerPlane},
		{"PagesPerBlock", c.PagesPerBlock},
		{"PageSize", c.PageSize},
	} {
		if f.v <= 0 {
			return fmt.Errorf("sprinkler: Config.%s must be positive, got %d", f.name, f.v)
		}
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("sprinkler: Config.QueueDepth must be positive, got %d (the device-level queue needs at least one tag)", c.QueueDepth)
	}
	if c.LogicalPages < 0 {
		return fmt.Errorf("sprinkler: Config.LogicalPages must be non-negative, got %d", c.LogicalPages)
	}
	if c.GCFreeTarget < 0 {
		return fmt.Errorf("sprinkler: Config.GCFreeTarget must be non-negative, got %d", c.GCFreeTarget)
	}
	if c.SeriesWindow < 0 {
		return fmt.Errorf("sprinkler: Config.SeriesWindow must be non-negative, got %d", c.SeriesWindow)
	}
	switch c.Scheduler {
	case VAS, PAS, SPK1, SPK2, SPK3, "":
	default:
		return fmt.Errorf("sprinkler: unknown scheduler %q (want one of %v)", c.Scheduler, Schedulers())
	}
	switch c.Allocation {
	case ChannelFirst, WayFirst, PlaneFirst, "":
	default:
		return fmt.Errorf("sprinkler: unknown allocation scheme %q", c.Allocation)
	}
	if total := c.TotalPages(); c.LogicalPages > total {
		return fmt.Errorf("sprinkler: Config.LogicalPages %d exceeds the %d physical pages", c.LogicalPages, total)
	}
	if err := c.Faults.check(); err != nil {
		return err
	}
	return nil
}

// options collects session/run knobs set by Option values.
type options struct {
	precondition *Precondition
	arena        *DeviceArena
	snapshot     *DeviceSnapshot
}

// Option customizes Open.
type Option func(*options)

// Precondition describes a device-fragmentation pass: fill FillFrac of
// the logical space, then overwrite ChurnFrac of the filled pages at
// random (seeded by Seed), so garbage collection runs under the workload
// (§5.9 of the paper).
type Precondition struct {
	FillFrac  float64
	ChurnFrac float64
	Seed      uint64
}

// WithPrecondition fragments the device before any request is served.
func WithPrecondition(p Precondition) Option {
	return func(o *options) { o.precondition = &p }
}

// WithSnapshot hydrates the session's device from a decoded warm-state
// snapshot instead of preconditioning it, so a session over an aged
// drive opens at fresh-drive cost. The session config must match the
// snapshot's in every field except Scheduler, and the option is mutually
// exclusive with WithPrecondition — the snapshot already embodies a
// warm-up. Composes with WithArena: the pooled device is Reset and then
// hydrated.
func WithSnapshot(snap *DeviceSnapshot) Option {
	return func(o *options) { o.snapshot = snap }
}

// WithArena checks the session's device out of the arena instead of
// building one: a pooled device on the configuration's topology is Reset
// and reused (with its warmed request free list), and Drain returns it to
// the arena for the next session or sweep cell. A nil arena degrades to
// fresh construction.
func WithArena(a *DeviceArena) Option {
	return func(o *options) { o.arena = a }
}
