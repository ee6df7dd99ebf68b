// Package bus models the shared per-channel data path of a many-chip SSD.
// All chips on a channel multiplex their command, address, data and status
// cycles onto one bus; the arbiter grants it FIFO. Bus contention is one of
// the execution-time components the paper breaks down in §5.5.
package bus

import (
	"sprinkler/internal/sim"
)

// Channel is a FIFO-arbitrated shared bus. It satisfies flash.Bus.
type Channel struct {
	eng  *sim.Engine
	id   int
	busy bool
	q    []pending
	qh   int // queue head index; popped entries leave a reusable prefix

	releaseT *sim.Timer         // reusable release event (one hold at a time)
	done     func(end sim.Time) // current holder's end-of-hold callback
}

type pending struct {
	dur     sim.Time
	granted func(start sim.Time)
	done    func(end sim.Time)
}

// New returns an idle channel bus bound to eng. The release event runs on
// the channel's lane (id+1), with every other event of that device channel,
// so within one instant it fires after the device's host-side events (lane
// 0) and in channel order. Pinned Results depend on that same-instant
// order.
func New(eng *sim.Engine, id int) *Channel {
	c := &Channel{eng: eng, id: id}
	c.releaseT = sim.NewTimer(c.release)
	c.releaseT.SetLane(int32(id) + 1)
	return c
}

// ID returns the channel index.
func (c *Channel) ID() int { return c.id }

// Reset returns the bus to its just-built idle state, retaining the wait
// queue's storage. The owning engine must have been Reset (or drained)
// first so no grant or release event is still scheduled.
func (c *Channel) Reset() {
	c.busy = false
	for i := range c.q {
		c.q[i] = pending{}
	}
	c.q = c.q[:0]
	c.qh = 0
	c.releaseT.Stop()
	c.done = nil
}

// Acquire requests the bus for dur. When granted, granted(start) runs at
// the grant instant. The bus's release event at start+dur first runs
// done(end), if non-nil, with the bus still held (an Acquire from done
// queues behind every waiter), then frees the bus and grants the next
// waiter. Grants are FIFO in request order, which keeps the simulation
// deterministic.
func (c *Channel) Acquire(dur sim.Time, granted, done func(sim.Time)) {
	if dur < 0 {
		panic("bus: negative duration")
	}
	p := pending{dur: dur, granted: granted, done: done}
	if !c.busy && c.queueLen() == 0 {
		c.grant(c.eng.Now(), p)
		return
	}
	c.q = append(c.q, p)
}

func (c *Channel) grant(now sim.Time, p pending) {
	c.busy = true
	c.done = p.done
	p.granted(now)
	c.eng.AtTimer(now+p.dur, c.releaseT)
}

func (c *Channel) release(now sim.Time) {
	if c.done != nil {
		c.done(now)
	}
	c.busy = false
	if c.queueLen() > 0 {
		next := c.q[c.qh]
		c.q[c.qh] = pending{}
		c.qh++
		if c.qh == len(c.q) {
			c.q = c.q[:0]
			c.qh = 0
		}
		c.grant(now, next)
	}
}

// queueLen reports how many acquisitions are waiting.
func (c *Channel) queueLen() int { return len(c.q) - c.qh }

// Busy reports whether the bus is currently held.
func (c *Channel) Busy() bool { return c.busy }
