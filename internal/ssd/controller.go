package ssd

import (
	"fmt"

	"sprinkler/internal/bus"
	"sprinkler/internal/flash"
	"sprinkler/internal/sim"
)

// controller is one per-channel flash controller (§2.1): it owns the
// committed per-chip request queues, builds flash transactions, and
// executes them on the chips.
//
// Transaction formation follows §2.2: when a chip becomes ready, the
// controller settles the transaction type within the decision window and
// greedily coalesces every committed request that legally fits (same op,
// distinct die/plane, plane sharing only with matching block/page
// offsets). Requests committed after the decision instant wait for the
// next transaction — the temporal transactional-locality limit. The depth
// of the committed queue is therefore what bounds achievable FLP, which is
// exactly the lever FARO's over-commitment pulls.
//
// All per-chip state is stored in offset-indexed slices, and the build
// timers, chip callbacks, and transaction values are bound once at
// construction, so the commit→build→execute cycle allocates nothing in
// steady state.
//
// Progress (transaction start and end, member-request completions) is
// reported to the owning device synchronously, from the channel event that
// produced it.
type controller struct {
	eng     *sim.Engine
	dev     ctlHost
	geo     flash.Geometry
	tim     flash.Timing
	channel int
	bus     *bus.Channel
	chips   []*flash.Chip // by chip offset within the channel

	pending    [][]flash.Request // by chip offset
	buildArmed []bool
	buildT     []*sim.Timer         // fires build after the decision window
	txns       []*flash.Transaction // reused: one in flight per chip
	cbs        []flash.Callbacks
	taken      []int // BuildTransactionInto scratch (build is synchronous)
}

// ctlHost receives a controller's progress notifications. The Device
// implements it.
type ctlHost interface {
	txnStarted(now sim.Time)
	txnDone(now sim.Time)
	onFlashReqDone(now sim.Time, r flash.Request)
}

func newController(eng *sim.Engine, dev ctlHost, geo flash.Geometry, tim flash.Timing, faults flash.FaultConfig, channel int) *controller {
	n := geo.ChipsPerChan
	ctl := &controller{
		eng:        eng,
		dev:        dev,
		geo:        geo,
		tim:        tim,
		channel:    channel,
		bus:        bus.New(eng, channel),
		chips:      make([]*flash.Chip, n),
		pending:    make([][]flash.Request, n),
		buildArmed: make([]bool, n),
		buildT:     make([]*sim.Timer, n),
		txns:       make([]*flash.Transaction, n),
		cbs:        make([]flash.Callbacks, n),
	}
	for off := 0; off < n; off++ {
		off := off
		id := geo.ChipAt(channel, off)
		ctl.chips[off] = flash.NewChip(eng, ctl.bus, id, geo, tim)
		ctl.chips[off].SetFaults(faults)
		ctl.txns[off] = &flash.Transaction{}
		ctl.buildT[off] = sim.NewTimer(func(now sim.Time) {
			ctl.buildArmed[off] = false
			ctl.build(now, off)
		})
		ctl.buildT[off].SetLane(int32(channel) + 1)
		ctl.cbs[off] = flash.Callbacks{
			RequestDone: dev.onFlashReqDone,
			TxnDone: func(t sim.Time, _ *flash.Transaction) {
				dev.txnDone(t)
				ctl.armBuild(t, off)
			},
		}
	}
	return ctl
}

// reset returns the controller, its bus and its chips to the just-built
// idle state for a new run, retaining every queue's storage. Timing and
// fault injection are per-run configuration and may change; geometry may
// not. The engine must have been Reset first (no build, bus or chip event
// may be pending).
func (ctl *controller) reset(tim flash.Timing, faults flash.FaultConfig) {
	ctl.tim = tim
	ctl.bus.Reset()
	for off := range ctl.chips {
		ctl.chips[off].Reset(tim)
		ctl.chips[off].SetFaults(faults)
		p := ctl.pending[off]
		for i := range p {
			p[i] = flash.Request{}
		}
		ctl.pending[off] = p[:0]
		ctl.buildArmed[off] = false
		ctl.buildT[off].Stop()
		txn := ctl.txns[off]
		for i := range txn.Requests {
			txn.Requests[i] = flash.Request{}
		}
		txn.Reset()
	}
	for i := range ctl.taken {
		ctl.taken[i] = 0
	}
	ctl.taken = ctl.taken[:0]
}

// offset maps a chip ID to its offset on this channel, panicking on
// foreign IDs.
func (ctl *controller) offset(id flash.ChipID) int {
	if ctl.geo.Channel(id) != ctl.channel {
		panic(fmt.Sprintf("ssd: chip %d not on channel %d", id, ctl.channel))
	}
	return ctl.geo.ChipOffset(id)
}

// chip returns the chip object, panicking on foreign IDs.
func (ctl *controller) chip(id flash.ChipID) *flash.Chip {
	return ctl.chips[ctl.offset(id)]
}

// commit appends a memory request to the chip's committed queue and arms
// the transaction builder if the chip is ready.
func (ctl *controller) commit(now sim.Time, r flash.Request) {
	off := ctl.offset(r.Addr.Chip)
	ctl.pending[off] = append(ctl.pending[off], r)
	ctl.armBuild(now, off)
}

// pendingLen reports the committed-but-unissued depth for a chip.
func (ctl *controller) pendingLen(id flash.ChipID) int {
	return len(ctl.pending[ctl.offset(id)])
}

// armBuild schedules a transaction build for an idle chip after the
// decision window. Requests committed within the window still make the
// cut; later ones join the next transaction.
func (ctl *controller) armBuild(now sim.Time, off int) {
	if ctl.buildArmed[off] || ctl.chips[off].Busy() || len(ctl.pending[off]) == 0 {
		return
	}
	ctl.buildArmed[off] = true
	ctl.eng.AtTimer(now+ctl.tim.DecisionWindow, ctl.buildT[off])
}

// build coalesces the committed queue into one transaction and executes it.
func (ctl *controller) build(now sim.Time, off int) {
	chip := ctl.chips[off]
	if chip.Busy() || len(ctl.pending[off]) == 0 {
		return
	}
	// The previous transaction for this chip has retired (the chip is
	// idle), so its value can be reused.
	txn := ctl.txns[off]
	ctl.taken = flash.BuildTransactionInto(ctl.geo, ctl.pending[off], txn, ctl.taken)
	// Remove the consumed requests, preserving order of the rest.
	rest := ctl.pending[off][:0]
	ti := 0
	for i, r := range ctl.pending[off] {
		if ti < len(ctl.taken) && ctl.taken[ti] == i {
			ti++
			continue
		}
		rest = append(rest, r)
	}
	ctl.pending[off] = rest

	ctl.dev.txnStarted(now)
	chip.Execute(txn, ctl.cbs[off])
}
