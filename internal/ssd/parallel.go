package ssd

import (
	"context"
	"sync/atomic"

	"sprinkler/internal/sim"
)

// Parallel per-channel device kernel.
//
// The serial kernel runs every component on one engine whose same-instant
// order is (lane, schedule order): host events (lane 0) first, then each
// channel's events (lane = channel+1) in channel order; once no event is
// left at the instant, the engine's end-of-instant hook flushes the staged
// messages. Channels interact with the host only through two narrow edges:
//
//   - host → channel: commits. The committing host events are DMA
//     compose-timer fires (at least ComposeLatency past the current epoch
//     start for new compositions, never before the already-scheduled
//     fire) and stale-read retranslations (at the recorded fire times the
//     device's retranslate queue exposes). Processing a staged completion
//     can also commit — GC chains its next phase, a host write completion
//     can arm a collection — but GC migrations are chip-local, so those
//     commits always target the channel that staged the completion.
//   - channel → host: staged messages (transaction start/done, member
//     completions), applied at end-of-instant in (channel, staging order).
//
// That gives a classic conservative lookahead: between one epoch start T
// and the horizon S = min(T+ComposeLatency, pending compose fire, pending
// retranslate fire), no commit from the host's own schedule can occur, so
// every channel's events in [T, S) depend only on state fixed at T — they
// can run concurrently, one goroutine per channel group (phase A). The
// host then replays its own events and the staged messages
// instant-by-instant over [T, S) (phase B), exactly as the serial flush
// would have. When the horizon collapses (a commit is due at T), the
// epoch degenerates to a single instant processed in serial lane order.
//
// With GC enabled, staged-completion processing commits mid-epoch. The
// epoch then runs in rounds: a channel staging a hazardous completion (a
// GC step, or a host write that can arm a collection) parks its
// sub-engine at the staging instant, phase B advances only through the
// earliest parked instant — delivering the hazard's chip-local commits to
// the channel parked exactly there — and the next round resumes it. See
// step for the mechanics.
//
// Because per-engine schedule order restricted to a lane equals the serial
// engine's (lane, seq) order restricted to that lane, the partitioned
// execution replays the serial timeline event-for-event: Results are
// byte-identical. The parity suite (TestParallelMatchesSerial) pins this.
type parRunner struct {
	d       *Device
	workers int

	// Worker pool, live only while a drain/advance call runs. Phase A
	// hands every worker the epoch deadline; workers claim channels off
	// the shared cursor and run their sub-engines to the deadline.
	start  chan sim.Time
	done   chan struct{}
	cursor atomic.Int32
	live   bool

	// engH orders the channel sub-engines by their next pending instant,
	// replacing the per-epoch linear min-scan; stgH orders the channels
	// with undrained staged messages by head timestamp during phase B.
	// Both key ties by channel index, so equal-time pops come in channel
	// order — the serial kernel's lane order. Storage is preallocated
	// here once; epoch maintenance allocates nothing.
	engH chHeap
	stgH chHeap
}

func newParRunner(d *Device) *parRunner {
	w := d.cfg.ParallelChannels
	if w > d.cfg.Geo.Channels {
		w = d.cfg.Geo.Channels
	}
	p := &parRunner{d: d, workers: w}
	p.engH.init(d.cfg.Geo.Channels)
	p.stgH.init(d.cfg.Geo.Channels)
	return p
}

// chEnt is one channel's key in a chHeap.
type chEnt struct {
	at sim.Time
	ch int32
}

// chHeap is a small indexed min-heap over channels keyed (at, ch). pos
// tracks each channel's slot so an entry can be moved or removed in place.
type chHeap struct {
	ents []chEnt
	pos  []int32 // channel -> slot in ents, -1 when absent
}

func (h *chHeap) init(n int) {
	h.ents = make([]chEnt, 0, n)
	h.pos = make([]int32, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *chHeap) clear() {
	for _, e := range h.ents {
		h.pos[e.ch] = -1
	}
	h.ents = h.ents[:0]
}

func (h *chHeap) less(i, j int) bool {
	return h.ents[i].at < h.ents[j].at ||
		(h.ents[i].at == h.ents[j].at && h.ents[i].ch < h.ents[j].ch)
}

func (h *chHeap) swap(i, j int) {
	h.ents[i], h.ents[j] = h.ents[j], h.ents[i]
	h.pos[h.ents[i].ch] = int32(i)
	h.pos[h.ents[j].ch] = int32(j)
}

func (h *chHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *chHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h.ents) {
			return
		}
		m := l
		if r := l + 1; r < len(h.ents) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// set inserts, moves, or (when !present) removes channel ch's entry.
func (h *chHeap) set(ch int32, at sim.Time, present bool) {
	i := h.pos[ch]
	switch {
	case present && i >= 0:
		old := h.ents[i].at
		h.ents[i].at = at
		if at < old {
			h.up(int(i))
		} else if at > old {
			h.down(int(i))
		}
	case present:
		h.ents = append(h.ents, chEnt{at: at, ch: ch})
		h.pos[ch] = int32(len(h.ents) - 1)
		h.up(len(h.ents) - 1)
	case i >= 0:
		last := len(h.ents) - 1
		h.swap(int(i), last)
		h.ents = h.ents[:last]
		h.pos[ch] = -1
		if int(i) < last {
			h.down(int(i))
			h.up(int(i))
		}
	}
}

func (h *chHeap) min() (chEnt, bool) {
	if len(h.ents) == 0 {
		return chEnt{}, false
	}
	return h.ents[0], true
}

// startPool spins up the phase-A workers for one top-level call.
func (p *parRunner) startPool() {
	if p.live {
		return
	}
	p.start = make(chan sim.Time)
	p.done = make(chan struct{})
	for w := 0; w < p.workers; w++ {
		go func() {
			for deadline := range p.start {
				for {
					i := int(p.cursor.Add(1)) - 1
					if i >= len(p.d.ctrls) {
						break
					}
					p.d.ctrls[i].eng.RunUntil(deadline)
				}
				p.done <- struct{}{}
			}
		}()
	}
	p.live = true
}

// stopPool shuts the workers down; channel state is fully synchronized
// (the pool is only ever stopped between epochs).
func (p *parRunner) stopPool() {
	if !p.live {
		return
	}
	close(p.start)
	p.live = false
}

// runChannels advances every channel sub-engine through deadline: phase A.
// The channel-claiming cursor plus the start/done handshakes give the
// goroutines their happens-before edges with the host.
func (p *parRunner) runChannels(deadline sim.Time) {
	if !p.live || p.workers <= 1 {
		for _, ctl := range p.d.ctrls {
			ctl.eng.RunUntil(deadline)
		}
		return
	}
	p.cursor.Store(0)
	for w := 0; w < p.workers; w++ {
		p.start <- deadline
	}
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
}

// syncEng refreshes one channel's engine-heap entry from its sub-engine.
func (p *parRunner) syncEng(ch int32) {
	at, ok := p.d.ctrls[ch].eng.NextAt()
	p.engH.set(ch, at, ok)
}

// rebuildEng resynchronizes the engine heap with every sub-engine — after
// phase A (all channels advanced) or a collapsed instant (commits at u may
// have scheduled channel work).
func (p *parRunner) rebuildEng() {
	p.engH.clear()
	for i := range p.d.ctrls {
		p.syncEng(int32(i))
	}
}

// nextInstant is the earliest pending instant across every engine: the
// host engine's peek against the channel heap's root. Staged queues are
// empty between epochs, so they need no scan here.
func (p *parRunner) nextInstant() (sim.Time, bool) {
	t, ok := p.d.eng.NextAt()
	if e, eok := p.engH.min(); eok && (!ok || e.at < t) {
		t, ok = e.at, true
	}
	return t, ok
}

// applyStagedAt drains every channel's staged messages timestamped u, in
// (channel, staging order) — the serial flush order.
func (p *parRunner) applyStagedAt(u sim.Time) bool {
	any := false
	for _, ctl := range p.d.ctrls {
		for {
			at, ok := ctl.stagedNext()
			if !ok || at != u {
				break
			}
			p.d.applyStaged(ctl.popStaged())
			any = true
		}
	}
	return any
}

// step runs one epoch of events at instants <= limit. It returns false —
// without advancing any clock — when no such events remain.
func (p *parRunner) step(limit sim.Time) bool {
	d := p.d
	T, ok := p.nextInstant()
	if !ok || T > limit {
		return false
	}

	// Horizon: no commit can land in [T, S) from the host's own schedule.
	// New compositions started at or after T complete at >=
	// T+ComposeLatency; the in-flight one (if any) completes at its
	// already-scheduled fire time; a pending stale-read retranslation
	// commits at its recorded fire time with no compose lookahead, so it
	// bounds the horizon too.
	S := T + d.cfg.ComposeLatency
	if at, pending := d.composeTimer.When(); pending && at < S {
		S = at
	}
	if at, pending := d.nextRetrans(); pending && at < S {
		S = at
	}
	if limit < sim.MaxTime && S > limit+1 {
		S = limit + 1
	}

	if S <= T {
		// The lookahead collapsed (a commit is due at T): process the
		// single instant T in serial lane order.
		p.instant(T)
		return true
	}

	// The epoch runs in rounds. With GC disabled there is exactly one:
	// phase A (channels run [T, S) concurrently, staging messages), then
	// phase B (host events and staged messages, instant by instant). With
	// GC enabled, host-side processing of a staged completion can commit
	// new flash traffic at the staging instant — but only onto the staging
	// channel itself (GC migrations are chip-local), so that channel parks
	// there: its sub-engine caps phase A at the hazard instant
	// (controller.stage → CapRun). Phase B then advances only through the
	// earliest parked instant uH, delivering the hazard's commits to the
	// channel parked exactly there, and the next round resumes it. Rounds
	// repeat until no channel parks before S; each round consumes at least
	// one hazard, so the loop terminates.
	for {
		p.runChannels(S - 1)
		p.rebuildEng()

		uH := S // no parked channel: this round finishes the epoch
		for _, ctl := range d.ctrls {
			if at, capped := ctl.eng.CappedAt(); capped && at < uH {
				uH = at
			}
		}

		// Phase B: host events and staged messages through min(S-1, uH),
		// in instant order. Host events here never commit (compose and
		// retranslate fires are all >= S); staged hazard processing can,
		// but only onto channels parked at the current instant. The staged
		// heap is re-seeded each round: parked channels stage more
		// messages when they resume.
		p.stgH.clear()
		for i, ctl := range d.ctrls {
			if at, sok := ctl.stagedNext(); sok {
				p.stgH.set(int32(i), at, true)
			}
		}
		for {
			u, ok := d.eng.NextAt()
			if e, sok := p.stgH.min(); sok && (!ok || e.at < u) {
				u, ok = e.at, true
			}
			if !ok || u >= S || u > uH {
				break
			}
			d.eng.RunUntil(u)
			// Drain every channel's messages at u in (channel, staging
			// order): equal-time heap pops come in ascending channel index.
			for {
				e, sok := p.stgH.min()
				if !sok || e.at != u {
					break
				}
				ctl := d.ctrls[e.ch]
				for {
					at, mok := ctl.stagedNext()
					if !mok || at != u {
						break
					}
					d.applyStaged(ctl.popStaged())
				}
				at, mok := ctl.stagedNext()
				p.stgH.set(e.ch, at, mok)
			}
			// Events the staged processing scheduled back at u (admission
			// chains) run after the flush, as on the serial kernel.
			d.eng.RunUntil(u)
		}

		if uH >= S {
			break
		}
		// Unpark the channels whose hazard instant was just processed;
		// channels parked later keep their cap for a following round.
		for _, ctl := range d.ctrls {
			if at, capped := ctl.eng.CappedAt(); capped && at <= uH {
				ctl.eng.Uncap()
			}
		}
	}
	d.eng.RunUntil(S - 1)
	return true
}

// instant processes one collapsed-horizon instant u in serial lane order:
// host events, each channel's events in channel order, staged messages,
// repeated until the instant quiesces (a commit at u can arm a build at u
// when the decision window is zero, which stages more work at u).
func (p *parRunner) instant(u sim.Time) {
	d := p.d
	for {
		progress := false
		if at, ok := d.eng.NextAt(); ok && at <= u {
			d.eng.RunUntil(u)
			progress = true
		}
		for _, ctl := range d.ctrls {
			if at, ok := ctl.eng.NextAt(); ok && at <= u {
				ctl.eng.RunUntil(u)
				progress = true
			}
		}
		if p.applyStagedAt(u) {
			progress = true
		}
		if !progress {
			// Hazard caps set while draining this instant are spent (every
			// staged message at u has been applied); clear them so the next
			// epoch's phase A does not falsely park.
			for _, ctl := range d.ctrls {
				ctl.eng.Uncap()
			}
			// Commits at u may have scheduled channel work; resync the
			// engine heap before the next epoch peeks it.
			p.rebuildEng()
			return
		}
	}
}

// pollEpochs is how many epochs run between context polls during a drain.
const pollEpochs = 1024

// drain runs every engine dry, in epochs. The caller (Device.drain) does
// the final accounting and stall check.
func (p *parRunner) drain(ctx context.Context) error {
	p.startPool()
	defer p.stopPool()
	p.rebuildEng()
	for n := 0; ; n++ {
		if n%pollEpochs == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !p.step(sim.MaxTime) {
			return nil
		}
	}
}

// advance runs epochs through `to` and then parks every clock exactly at
// `to` — Device.Advance's contract on the partitioned kernel.
func (p *parRunner) advance(to sim.Time) {
	p.startPool()
	defer p.stopPool()
	p.rebuildEng()
	for p.step(to) {
	}
	p.d.eng.RunUntil(to)
	for _, ctl := range p.d.ctrls {
		ctl.eng.RunUntil(to)
	}
}
