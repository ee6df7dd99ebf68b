package ssd

import (
	"fmt"

	"sprinkler/internal/bus"
	"sprinkler/internal/flash"
	"sprinkler/internal/req"
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
// The controller never calls back into the device synchronously. Progress
// notifications (transaction start/end, member-request completions) are
// staged into a per-channel message list and drained by the device at the
// end of the instant — by the engine's end-of-instant hook on the
// single-engine kernel, or at the epoch barrier of the parallel per-channel
// kernel. Staging is what makes the two kernels byte-identical: in both,
// every channel's messages for one instant are applied in (channel,
// staging order).
type controller struct {
	eng     *sim.Engine
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

	// staged is the channel→device message queue, in staging order (which
	// is simulation-time order: channel events run time-monotonically).
	// head indexes the first undrained message.
	staged     []stagedMsg
	stagedHead int

	// armFlush makes staging arm the engine's end-of-instant hook, where
	// the single-engine device drains the messages. The parallel kernel
	// leaves it off and drains at epoch barriers.
	armFlush bool

	// parkOnHazard is set by the parallel kernel when GC is enabled:
	// staging a completion whose host-side processing can commit GC flash
	// traffic back onto this channel caps the sub-engine at the staging
	// instant, so the channel waits there for the epoch coordinator to
	// deliver the commit before simulating past it. GC migrations are
	// chip-local (ftl.PlanGC allocates destinations on the victim's chip),
	// so the commit always targets the channel that parked.
	parkOnHazard bool
}

// stagedKind discriminates channel→device messages.
type stagedKind uint8

const (
	// stagedTxnStart: a transaction began executing on msg.chip.
	stagedTxnStart stagedKind = iota
	// stagedTxnDone: the in-flight transaction on msg.chip retired.
	stagedTxnDone
	// stagedReqDone: member request msg.r completed.
	stagedReqDone
)

// stagedMsg is one channel→device progress notification.
type stagedMsg struct {
	at   sim.Time
	kind stagedKind
	chip flash.ChipID
	r    flash.Request // stagedReqDone payload
}

func newController(eng *sim.Engine, geo flash.Geometry, tim flash.Timing, faults flash.FaultConfig, channel int) *controller {
	n := geo.ChipsPerChan
	ctl := &controller{
		eng:        eng,
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
			RequestDone: func(t sim.Time, r flash.Request) {
				ctl.stage(stagedMsg{at: t, kind: stagedReqDone, chip: id, r: r})
			},
			TxnDone: func(t sim.Time, _ *flash.Transaction) {
				ctl.stage(stagedMsg{at: t, kind: stagedTxnDone, chip: id})
				// The chip just dropped R/B: re-arm with busy=false rather
				// than reading device-owned mirror state from channel
				// context.
				ctl.armBuild(t, id, false)
			},
		}
	}
	return ctl
}

// stage appends one channel→device message and pings the owner.
func (ctl *controller) stage(msg stagedMsg) {
	ctl.staged = append(ctl.staged, msg)
	if ctl.armFlush {
		ctl.eng.ArmInstantEnd()
	}
	if ctl.parkOnHazard && msg.kind == stagedReqDone && hazardousToken(msg.r.Token) {
		ctl.eng.CapRun(msg.at)
	}
}

// hazardousToken reports whether the host-side processing of a completed
// request can commit new flash traffic at the completion instant: GC step
// completions chain the job's next phase (reads → programs → erase → next
// victim), and host write completions can arm a new collection
// (maybeStartGC). Both commit onto the completing request's own chip, so
// the staging channel parks and no other channel is affected. Reading the
// token from channel context is race-free: the fields inspected are set
// before the request is committed to the channel and never change while it
// is in flight.
func hazardousToken(tok interface{}) bool {
	switch t := tok.(type) {
	case *gcStep:
		return true
	case *req.Mem:
		return t.IO.Kind == req.Write
	}
	return false
}

// stagedNext peeks the first undrained message's timestamp.
func (ctl *controller) stagedNext() (sim.Time, bool) {
	if ctl.stagedHead >= len(ctl.staged) {
		return 0, false
	}
	return ctl.staged[ctl.stagedHead].at, true
}

// popStaged removes and returns the first undrained message, reclaiming
// the slice once it fully drains (constantly, at steady state).
func (ctl *controller) popStaged() stagedMsg {
	msg := ctl.staged[ctl.stagedHead]
	ctl.staged[ctl.stagedHead] = stagedMsg{}
	ctl.stagedHead++
	if ctl.stagedHead == len(ctl.staged) {
		ctl.staged = ctl.staged[:0]
		ctl.stagedHead = 0
	}
	return msg
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
	for i := range ctl.staged {
		ctl.staged[i] = stagedMsg{}
	}
	ctl.staged = ctl.staged[:0]
	ctl.stagedHead = 0
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
// the transaction builder if the chip is ready. Callers run in device
// (host) context and pass the current instant plus their view of the
// chip's busy state — the device's staged mirror, which reflects exactly
// the transaction starts/ends the host has processed so far. (On the
// parallel kernel the chip object itself may already have advanced past
// now; the mirror is the causally correct view in both kernels.)
func (ctl *controller) commit(now sim.Time, r flash.Request, chipBusy bool) {
	id := r.Addr.Chip
	off := ctl.offset(id)
	ctl.pending[off] = append(ctl.pending[off], r)
	ctl.armBuild(now, id, chipBusy)
}

// pendingLen reports the committed-but-unissued depth for a chip.
func (ctl *controller) pendingLen(id flash.ChipID) int {
	return len(ctl.pending[ctl.offset(id)])
}

// armBuild schedules a transaction build for an idle chip after the
// decision window. Requests committed within the window still make the
// cut; later ones join the next transaction. busy is the caller's
// causally-consistent view of the chip's R/B state at now (see commit).
func (ctl *controller) armBuild(now sim.Time, id flash.ChipID, busy bool) {
	off := ctl.offset(id)
	if ctl.buildArmed[off] || busy || len(ctl.pending[off]) == 0 {
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

	ctl.stage(stagedMsg{at: now, kind: stagedTxnStart, chip: chip.ID})
	chip.Execute(txn, ctl.cbs[off])
}
