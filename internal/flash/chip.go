package flash

import (
	"fmt"

	"sprinkler/internal/sim"
)

// Bus abstracts the shared channel data path a chip hangs off. The concrete
// implementation lives in internal/bus; the indirection keeps this package
// dependent only on the sim kernel.
type Bus interface {
	// Acquire requests the bus for dur and calls granted at the grant
	// instant. dur later the bus's release event calls done, then frees
	// the bus for the next waiter.
	Acquire(dur sim.Time, granted, done func(sim.Time))
}

// Callbacks receives transaction progress notifications from a chip.
type Callbacks struct {
	// RequestDone fires when one member request's payload is fully served
	// (for reads: data streamed out; for programs/erases: cell phase done).
	RequestDone func(now sim.Time, r Request)
	// TxnDone fires after the whole transaction retires and the chip has
	// dropped R/B. The chip is ready for the next transaction.
	TxnDone func(now sim.Time, t *Transaction)
}

// ChipStats aggregates per-chip occupancy accounting used by the metrics
// layer: cell-active time, bus-active time, bus-wait (contention) time, and
// the plane-use integral for intra-chip idleness.
type ChipStats struct {
	CellActive  sim.TimedCounter
	BusActive   sim.TimedCounter
	BusWait     sim.Time
	PlaneUse    sim.WeightedSum // active (die,plane) pairs during cell phases
	Txns        int64
	TxnsByClass [4]int64 // indexed by FLPClass
	ReqsByClass [4]int64 // member requests served per FLPClass
	Requests    int64
	BusyAll     sim.TimedCounter // R/B asserted (any phase)

	// Fault-model outcomes (all zero when the fault model is disabled).
	ReadRetries       int64 // extra sense operations from the retry ladder
	ReadUncorrectable int64 // members delivered Failed after ladder exhaustion
	ProgramFails      int64 // members whose program reported failure
	EraseFails        int64 // members whose erase reported failure
}

// Chip models one NAND flash target: several dies behind a single
// multiplexed interface with one R/B line. A chip executes one transaction
// at a time; while R/B is asserted nothing else may be submitted (§2.2).
//
// The execution sequence mirrors the ONFI command flow:
//
//	program: per member [cmd+addr+data-in] on the bus, then one overlapped
//	         cell phase (dies in parallel, planes shared), then status;
//	read:    per member [cmd+addr] on the bus, then the cell phase, then
//	         per member [data-out], then status;
//	erase:   per member [cmd+addr], cell phase, status.
//
// Because a chip runs exactly one transaction (and holds at most one
// pending bus acquisition) at a time, the phase walk is a state machine
// over fields of the Chip itself, driven by one reusable cell-phase timer
// and bus grant/hold-end callbacks bound once at construction. A bus hold
// ends inside the bus's own release event, so bus phases cost the kernel
// no event of the chip's — and executing a transaction performs no heap
// allocations.
type Chip struct {
	ID    ChipID
	Geo   Geometry
	Tim   Timing
	eng   *sim.Engine
	bus   Bus
	busy  bool
	stats ChipStats

	// Fault model. frng is nil when the model is disabled; retryRung and
	// retryMask track the in-flight read-retry ladder (mask bit i = member
	// i still failing ECC; transactions are bounded by MaxFLP, far below
	// the 64-member mask capacity).
	faults    FaultConfig
	frng      *sim.Rand
	retryRung int
	retryMask uint64

	// In-flight transaction state.
	t     *Transaction
	cb    Callbacks
	idx   int      // member index in the submit/read-out phase
	asked sim.Time // when the pending bus hold was requested

	// Preallocated continuations: granted starts any bus hold, the *End
	// funcs end one (passed to Bus.Acquire as done), cellEnd ends the
	// cell phase.
	granted   func(start sim.Time)
	submitEnd func(now sim.Time)
	readEnd   func(now sim.Time)
	statusEnd func(now sim.Time)
	cellEnd   *sim.Timer
}

// NewChip returns an idle chip bound to eng and bus. The chip's cell-phase
// events run on its channel's lane (channel index + 1), like the bus it
// hangs off, so within one instant they fire after the device's host-side
// events (lane 0) and in channel order. Pinned Results depend on that
// same-instant order.
func NewChip(eng *sim.Engine, bus Bus, id ChipID, g Geometry, t Timing) *Chip {
	c := &Chip{ID: id, Geo: g, Tim: t, eng: eng, bus: bus}
	c.granted = func(start sim.Time) {
		c.stats.BusWait += start - c.asked
		c.stats.BusActive.Set(start, true)
	}
	c.submitEnd = func(now sim.Time) {
		c.stats.BusActive.Set(now, false)
		c.submitPhase(now, c.idx+1)
	}
	c.cellEnd = sim.NewTimer(func(end sim.Time) {
		c.stats.CellActive.Set(end, false)
		c.stats.PlaneUse.Set(end, 0)
		if c.t.Op == OpRead {
			if c.maybeRetryRead(end) {
				return
			}
			c.readOutPhase(end, 0)
			return
		}
		// Programs and erases complete at cell end.
		c.applyWriteFaults()
		for _, r := range c.t.Requests {
			if c.cb.RequestDone != nil {
				c.cb.RequestDone(end, r)
			}
		}
		c.statusPhase(end)
	})
	c.readEnd = func(now sim.Time) {
		c.stats.BusActive.Set(now, false)
		if c.cb.RequestDone != nil {
			c.cb.RequestDone(now, c.t.Requests[c.idx])
		}
		c.readOutPhase(now, c.idx+1)
	}
	c.statusEnd = func(now sim.Time) {
		c.stats.BusActive.Set(now, false)
		c.busy = false
		c.stats.BusyAll.Set(now, false)
		t, cb := c.t, c.cb
		c.t, c.cb = nil, Callbacks{}
		if cb.TxnDone != nil {
			cb.TxnDone(now, t)
		}
	}
	c.cellEnd.SetLane(int32(g.Channel(id)) + 1)
	return c
}

// Reset returns the chip to its just-built idle state for a new run,
// dropping the in-flight transaction reference and zeroing the stats. The
// timing may change between runs (it is per-run configuration, not
// topology); the engine and bus bindings are topology and stay. The owning
// engine must have been Reset (or drained) first.
func (c *Chip) Reset(t Timing) {
	c.Tim = t
	c.busy = false
	c.stats = ChipStats{}
	c.t = nil
	c.cb = Callbacks{}
	c.idx = 0
	c.asked = 0
	c.retryRung, c.retryMask = 0, 0
	c.cellEnd.Stop()
}

// SetFaults installs (or, with a disabled config, removes) the fault model
// and reseeds the chip's deterministic fault stream. Called at construction
// and again after Reset so an arena-reused chip replays the exact fault
// pattern of a freshly built one.
func (c *Chip) SetFaults(fc FaultConfig) {
	c.faults = fc
	c.retryRung, c.retryMask = 0, 0
	if !fc.Enabled() {
		c.frng = nil
		return
	}
	seed := chipFaultSeed(fc.Seed, c.ID)
	if c.frng == nil {
		c.frng = sim.NewRand(seed)
	} else {
		c.frng.Reseed(seed)
	}
}

// Busy reports the R/B state: true while a transaction is in flight.
func (c *Chip) Busy() bool { return c.busy }

// FaultRNGState captures the chip's fault-stream generator state; ok is
// false when the fault model is disabled (no generator exists). Part of
// the warm-state checkpoint: the stream's position encodes how many
// fault draws the warm-up consumed.
func (c *Chip) FaultRNGState() (state uint64, ok bool) {
	if c.frng == nil {
		return 0, false
	}
	return c.frng.State(), true
}

// SetFaultRNGState restores a captured fault-stream position. SetFaults
// must have installed the fault model first (it owns the generator's
// existence and seeding); restoring onto a chip without a generator is a
// checkpoint/config mismatch and panics.
func (c *Chip) SetFaultRNGState(state uint64) {
	if c.frng == nil {
		panic("flash: SetFaultRNGState without a fault model")
	}
	c.frng.SetState(state)
}

// Stats exposes the accounting counters (read-only use by metrics).
func (c *Chip) Stats() *ChipStats { return &c.stats }

// busInDur is the bus occupancy of submitting one member request.
func (c *Chip) busInDur(r Request) sim.Time {
	d := c.Tim.CommandOverhead(r.Op)
	if r.Op == OpProgram {
		d += c.Tim.DataTransferTime(c.Geo.PageSize)
	}
	return d
}

// cellDur is the overlapped cell-phase duration of t: dies operate in
// parallel and planes within a die share one array operation, so the phase
// lasts as long as the slowest member request.
func (c *Chip) cellDur(t *Transaction) sim.Time {
	var max sim.Time
	for _, r := range t.Requests {
		if ct := c.Tim.CellTime(r.Op, r.Addr); ct > max {
			max = ct
		}
	}
	return max
}

// Execute runs transaction t to completion and reports progress through cb.
// It panics if the chip is already busy — submitting to a busy chip is a
// controller bug, the R/B line makes that state visible in hardware.
func (c *Chip) Execute(t *Transaction, cb Callbacks) {
	if c.busy {
		panic(fmt.Sprintf("flash: chip %d busy, cannot execute %v", c.ID, t))
	}
	if t.Len() == 0 {
		panic("flash: empty transaction")
	}
	now := c.eng.Now()
	c.busy = true
	c.stats.BusyAll.Set(now, true)
	c.stats.Txns++
	cls := t.Class()
	c.stats.TxnsByClass[cls]++
	c.stats.ReqsByClass[cls] += int64(t.Len())
	c.stats.Requests += int64(t.Len())
	c.t = t
	c.cb = cb
	c.submitPhase(now, 0)
}

// submitPhase streams member i's command/address(/data-in) cycles.
func (c *Chip) submitPhase(now sim.Time, i int) {
	if i >= c.t.Len() {
		c.cellPhase(now)
		return
	}
	c.idx = i
	c.asked = now
	c.bus.Acquire(c.busInDur(c.t.Requests[i]), c.granted, c.submitEnd)
}

// cellPhase runs the overlapped array operation. With outage windows
// configured, a phase that would start while a member die is transiently
// unavailable waits out the remainder of that die's window first.
func (c *Chip) cellPhase(now sim.Time) {
	dur := c.cellDur(c.t)
	if c.frng != nil && c.faults.OutagePeriod > 0 && c.faults.OutageDur > 0 {
		var delay sim.Time
		for _, r := range c.t.Requests {
			if d := c.outageDelay(now, r.Addr.Die); d > delay {
				delay = d
			}
		}
		dur += delay
	}
	c.stats.CellActive.Set(now, true)
	c.stats.PlaneUse.Set(now, float64(c.t.Degree()))
	c.eng.AtTimer(now+dur, c.cellEnd)
}

// outageDelay returns how long a cell phase starting at now on the given die
// must wait for the die's periodic outage window to close (zero when the die
// is available). The window position is a pure function of (seed, chip, die,
// time): no RNG draw, so the outage pattern cannot depend on drain order.
func (c *Chip) outageDelay(now sim.Time, die int) sim.Time {
	p, d := c.faults.OutagePeriod, c.faults.OutageDur
	phase := dieOutagePhase(c.faults.Seed, c.ID, die, p)
	pos := (now - phase) % p
	if pos < 0 {
		pos += p
	}
	if pos < d {
		return d - pos
	}
	return 0
}

// maybeRetryRead implements the bounded read-retry ladder at cell-phase end.
// It reports true when another (slower) sense was scheduled; false when the
// transaction should proceed to read-out, with any members that exhausted
// the ladder marked Failed (uncorrectable).
func (c *Chip) maybeRetryRead(end sim.Time) bool {
	if c.frng == nil || c.faults.ReadFailProb <= 0 {
		return false
	}
	if c.retryRung == 0 {
		// First sense: draw each member once.
		c.retryMask = 0
		for i := range c.t.Requests {
			if c.frng.Float64() < c.faults.ReadFailProb {
				c.retryMask |= 1 << uint(i)
			}
		}
	} else {
		// A retry sense just finished: redraw only the failing members.
		for i := range c.t.Requests {
			bit := uint64(1) << uint(i)
			if c.retryMask&bit != 0 && c.frng.Float64() >= c.faults.ReadFailProb {
				c.retryMask &^= bit
			}
		}
	}
	if c.retryMask == 0 {
		c.retryRung = 0
		return false
	}
	if c.retryRung >= c.faults.ReadRetryMax {
		// Ladder exhausted: deliver the failing members as uncorrectable.
		for i := range c.t.Requests {
			if c.retryMask&(1<<uint(i)) != 0 {
				c.t.Requests[i].Failed = true
				c.stats.ReadUncorrectable++
			}
		}
		c.retryRung, c.retryMask = 0, 0
		return false
	}
	// Re-sense with an escalated (calibrated, slower) read: retry r costs
	// r*ReadRetryMult times the base cell time.
	c.retryRung++
	c.stats.ReadRetries++
	mult := c.faults.ReadRetryMult
	if mult < 1 {
		mult = 1
	}
	dur := c.cellDur(c.t) * sim.Time(c.retryRung*mult)
	c.stats.CellActive.Set(end, true)
	c.stats.PlaneUse.Set(end, float64(c.t.Degree()))
	c.eng.AtTimer(end+dur, c.cellEnd)
	return true
}

// applyWriteFaults draws program/erase outcomes for every member of the
// in-flight transaction, marking failures before completions are delivered.
func (c *Chip) applyWriteFaults() {
	if c.frng == nil {
		return
	}
	var p float64
	switch c.t.Op {
	case OpProgram:
		p = c.faults.ProgramFailProb
	case OpErase:
		p = c.faults.EraseFailProb
	}
	if p <= 0 {
		return
	}
	for i := range c.t.Requests {
		if c.frng.Float64() < p {
			c.t.Requests[i].Failed = true
			if c.t.Op == OpProgram {
				c.stats.ProgramFails++
			} else {
				c.stats.EraseFails++
			}
		}
	}
}

// readOutPhase streams member i's page out of the data register.
func (c *Chip) readOutPhase(now sim.Time, i int) {
	if i >= c.t.Len() {
		c.statusPhase(now)
		return
	}
	c.idx = i
	c.asked = now
	c.bus.Acquire(c.Tim.DataTransferTime(c.Geo.PageSize), c.granted, c.readEnd)
}

// statusPhase reads chip status and retires the transaction.
func (c *Chip) statusPhase(now sim.Time) {
	c.asked = now
	c.bus.Acquire(c.Tim.StatusCycle, c.granted, c.statusEnd)
}

// ServiceTime estimates, without simulating, how long t would occupy the
// chip on an uncontended bus. Useful for tests and admission heuristics.
func (c *Chip) ServiceTime(t *Transaction) sim.Time {
	var busIn sim.Time
	for _, r := range t.Requests {
		busIn += c.busInDur(r)
	}
	total := busIn + c.cellDur(t) + c.Tim.StatusCycle
	if t.Op == OpRead {
		total += sim.Time(t.Len()) * c.Tim.DataTransferTime(c.Geo.PageSize)
	}
	return total
}
