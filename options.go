package sprinkler

// Validate checks the configuration against every rule New applies —
// geometry, queue, logical space, series window, fault knobs and the
// FTL's spare-block budget — so it rejects every config New would. Each
// error starts "sprinkler: " and names the offending field or value. New
// and Open validate automatically; call it directly to vet configurations
// built elsewhere.
func (c Config) Validate() error {
	_, err := c.internal()
	return err
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
