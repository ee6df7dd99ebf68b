// Package sim provides the discrete-event simulation kernel used by the
// many-chip SSD model: a deterministic event queue, a simulation clock, and
// time-weighted statistics helpers.
//
// The kernel is intentionally single-threaded. All model components run as
// callbacks scheduled on one Engine, so a simulation is a pure function of
// its inputs: the same configuration and trace always produce the same
// timeline. Events scheduled for the same instant fire in (lane, schedule
// order): every event belongs to a small integer lane (default 0), lanes
// fire in ascending order within an instant, and within a lane events fire
// in the order they were scheduled (FIFO tie-breaking by sequence number).
//
// Lanes carry a model-level ordering: the SSD device runs its host-side
// events (arrivals, DMA composition, commits) on lane 0 and each channel's
// bus and chip events on lane channel+1, so within one instant the host
// acts before any channel, and channels act in channel order. Pinned
// Results depend on this order; scheduling everything on one lane changes
// them.
//
// The event queue is a slab-backed 4-ary heap of event values: scheduling
// reuses slab slots through a free list, so steady-state operation performs
// no heap allocations. Components that schedule on the hot path own
// reusable Timer structs (AtTimer/AfterTimer) whose callbacks are bound
// once at construction, eliminating per-event closure allocations too.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Common durations, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. The Engine passes the current simulation
// time when the event fires.
type Event func(now Time)

// event is one slab slot. A slot is either scheduled (pos >= 0, linked into
// the heap) or free (pos == -1, linked into the free list through next).
// gen increments every time the slot is released, invalidating outstanding
// Handles to the previous occupant.
type event struct {
	at    Time
	seq   uint64 // schedule order, breaks same-lane ties deterministically
	fn    Event
	timer *Timer // owning timer, cleared on fire/cancel; nil for At/After
	lane  int32  // same-instant ordering class; lower lanes fire first
	gen   uint32
	pos   int32 // heap index, -1 when free
	next  int32 // free-list link while free
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and refers to nothing.
type Handle struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel removes the event from the queue. Cancelling an already-fired or
// already-cancelled event (or the zero Handle) is a no-op.
func (h Handle) Cancel() {
	if h.e == nil {
		return
	}
	ev := &h.e.slab[h.idx]
	if ev.gen != h.gen || ev.pos < 0 {
		return
	}
	if ev.timer != nil {
		ev.timer.h = Handle{}
	}
	h.e.removeAt(ev.pos)
	h.e.release(h.idx)
}

// active reports whether the handle still refers to a scheduled event.
func (h Handle) active() bool {
	if h.e == nil {
		return false
	}
	ev := &h.e.slab[h.idx]
	return ev.gen == h.gen && ev.pos >= 0
}

// Timer is a reusable scheduling slot for components that fire the same
// callback over and over: the callback is bound once, so scheduling through
// AtTimer/AfterTimer allocates nothing. A Timer tracks at most one pending
// schedule at a time.
type Timer struct {
	fn   Event
	h    Handle
	lane int32
}

// NewTimer returns a Timer that runs fn when it fires, on lane 0.
func NewTimer(fn Event) *Timer { return &Timer{fn: fn} }

// SetLane assigns the timer's same-instant ordering lane. Components owned
// by one device channel set the channel's lane once at construction; the
// timer must not be pending.
func (t *Timer) SetLane(lane int32) {
	if t.Pending() {
		panic("sim: SetLane on a pending timer")
	}
	t.lane = lane
}

// Pending reports whether the timer is currently scheduled.
func (t *Timer) Pending() bool { return t.h.active() }

// Stop cancels the pending schedule, if any.
func (t *Timer) Stop() {
	t.h.Cancel()
	t.h = Handle{}
}

// Engine is the simulation event loop.
type Engine struct {
	now     Time
	seq     uint64
	slab    []event
	free    int32   // free-list head, -1 when empty
	heap    []int32 // 4-ary heap of slab indices, ordered by (at, lane, seq)
	fired   uint64
	stopped bool
}

// NewEngine returns an Engine at time zero with an empty event queue.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued. Cancelled events are removed
// immediately, so every pending event is live.
func (e *Engine) Pending() int { return len(e.heap) }

// schedule allocates a slab slot and pushes it onto the heap.
func (e *Engine) schedule(at Time, fn Event, t *Timer, lane int32) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var idx int32
	if e.free >= 0 {
		idx = e.free
		e.free = e.slab[idx].next
	} else {
		e.slab = append(e.slab, event{})
		idx = int32(len(e.slab) - 1)
	}
	ev := &e.slab[idx]
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.timer = t
	ev.lane = lane
	e.seq++
	ev.pos = int32(len(e.heap))
	e.heap = append(e.heap, idx)
	e.siftUp(int(ev.pos))
	return Handle{e: e, idx: idx, gen: ev.gen}
}

// release returns a slab slot to the free list and invalidates handles.
func (e *Engine) release(idx int32) {
	ev := &e.slab[idx]
	ev.gen++
	ev.fn = nil
	ev.timer = nil
	ev.pos = -1
	ev.next = e.free
	e.free = idx
}

// less orders heap entries by (at, lane, seq).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.slab[a], &e.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.lane != eb.lane {
		return ea.lane < eb.lane
	}
	return ea.seq < eb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	idx := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(idx, h[p]) {
			break
		}
		h[i] = h[p]
		e.slab[h[i]].pos = int32(i)
		i = p
	}
	h[i] = idx
	e.slab[idx].pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	idx := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(h[c], h[best]) {
				best = c
			}
		}
		if !e.less(h[best], idx) {
			break
		}
		h[i] = h[best]
		e.slab[h[i]].pos = int32(i)
		i = best
	}
	h[i] = idx
	e.slab[idx].pos = int32(i)
}

// removeAt deletes the heap entry at position pos, restoring heap order.
func (e *Engine) removeAt(pos int32) {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if int(pos) < n {
		h[pos] = last
		e.slab[last].pos = pos
		e.siftDown(int(pos))
		e.siftUp(int(e.slab[last].pos))
	}
}

// At schedules fn to run at absolute time at, on lane 0. Scheduling in the
// past panics: that is always a model bug, and silently clamping would
// corrupt causality.
func (e *Engine) At(at Time, fn Event) Handle {
	return e.schedule(at, fn, nil, 0)
}

// After schedules fn to run delay nanoseconds from now, on lane 0.
func (e *Engine) After(delay Time, fn Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.schedule(e.now+delay, fn, nil, 0)
}

// AtTimer schedules t's callback at absolute time at, on t's lane. The
// timer must not already be pending: components that reuse a timer are
// responsible for one schedule at a time, and double-scheduling is always a
// model bug.
func (e *Engine) AtTimer(at Time, t *Timer) {
	if t.Pending() {
		panic("sim: timer already pending")
	}
	t.h = e.schedule(at, t.fn, t, t.lane)
}

// AfterTimer schedules t's callback delay nanoseconds from now.
func (e *Engine) AfterTimer(delay Time, t *Timer) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtTimer(e.now+delay, t)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to time zero with an empty event queue, as if
// freshly constructed — but with the slab and heap storage retained, so a
// reused engine schedules its next run without growing allocations. Every
// pending event is cancelled: outstanding Handles go stale and owning
// Timers become non-pending. The sequence counter restarts at zero, so a reset engine breaks same-instant
// ties exactly like a new one — the property device reuse needs for
// run-for-run identical timelines.
func (e *Engine) Reset() {
	for _, idx := range e.heap {
		ev := &e.slab[idx]
		if ev.timer != nil {
			ev.timer.h = Handle{}
		}
		e.release(idx)
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.fired, e.stopped = 0, 0, 0, false
}

// step executes the earliest event, releasing its slot before the callback
// runs (so the callback can schedule new events into the freed slot, and
// handles to the fired event go stale).
func (e *Engine) step() {
	idx := e.heap[0]
	ev := &e.slab[idx]
	at, fn, timer := ev.at, ev.fn, ev.timer
	e.removeAt(0)
	e.release(idx)
	if timer != nil {
		timer.h = Handle{}
	}
	if at < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = at
	e.fired++
	fn(at)
}

// Run executes events until the queue drains, the event budget is exhausted,
// or Stop is called. A budget of 0 means unlimited. It returns the time of the last executed event.
func (e *Engine) Run(budget uint64) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		e.step()
		if budget != 0 && e.fired >= budget {
			break
		}
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped && e.slab[e.heap[0]].at <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
