package flash

import "sprinkler/internal/sim"

// FaultConfig parameterizes the deterministic fault model a chip applies to
// its own operations. All outcomes are drawn from a per-chip RNG stream in
// chip-local transaction order, or (for outages) computed as a pure function
// of simulated time — never from shared state — so a run's fault pattern is
// a pure function of the configuration, and identical again after a
// Reset/arena reuse.
//
// The zero value disables the model entirely: no RNG stream is created and
// no draws are made, so a zero-config run is byte-identical to a build
// without the fault model.
type FaultConfig struct {
	// ReadFailProb is the per-member probability that one array sense
	// fails ECC and must be retried. Each retry re-draws independently.
	ReadFailProb float64
	// ProgramFailProb is the per-member probability that a program
	// operation reports failure at cell-phase end.
	ProgramFailProb float64
	// EraseFailProb is the per-member probability that a block erase
	// reports failure (the block should then be retired by the FTL).
	EraseFailProb float64

	// ReadRetryMax bounds the read-retry ladder: after this many re-senses
	// a still-failing member is delivered as uncorrectable (Failed set).
	ReadRetryMax int
	// ReadRetryMult scales the escalating retry sense time: retry r costs
	// r*ReadRetryMult times the base cell time (calibrated read retries
	// are slower than the nominal tR). Values < 1 are treated as 1.
	ReadRetryMult int

	// OutagePeriod/OutageDur define per-die transient outage windows: each
	// die is unavailable for OutageDur out of every OutagePeriod, at a
	// per-die phase derived from the seed. A cell phase that would start
	// inside a die's outage window is delayed until the window closes.
	// Zero period or duration disables outages.
	OutagePeriod sim.Time
	OutageDur    sim.Time

	// Seed is the base seed; each chip derives its own stream from it.
	Seed uint64
}

// Enabled reports whether any fault mechanism is active.
func (fc FaultConfig) Enabled() bool {
	return fc.ReadFailProb > 0 || fc.ProgramFailProb > 0 || fc.EraseFailProb > 0 ||
		(fc.OutagePeriod > 0 && fc.OutageDur > 0)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// chipFaultSeed derives chip's RNG stream seed from the base seed. Streams
// are keyed by chip identity, not by draw order across chips, which is what
// keeps the fault pattern independent of event drain order.
func chipFaultSeed(base uint64, chip ChipID) uint64 {
	return mix64(base + 0x9E3779B97F4A7C15*(uint64(chip)+1))
}

// dieOutagePhase derives the (chip, die) outage window offset in [0, period).
func dieOutagePhase(base uint64, chip ChipID, die int, period sim.Time) sim.Time {
	h := mix64(chipFaultSeed(base, chip) ^ (0xD6E8FEB86659FD93 * uint64(die+1)))
	return sim.Time(h % uint64(period))
}
