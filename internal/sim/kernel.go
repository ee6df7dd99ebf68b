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
// The event queue is a 4-ary min-heap of event values ordered by (time,
// lane, sequence). A scheduled event cannot be cancelled: it fires, or an
// Engine.Reset drops it. The heap's backing array is retained across pops
// and resets, so steady-state operation performs no heap allocations.
// Components that schedule on the hot path own reusable Timer structs
// (AtTimer/AfterTimer) whose callbacks are bound once at construction,
// eliminating per-event closure allocations too.
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

// Horizon is the simulated-time horizon, 2^62 ns (~146 years). The public
// API keeps arrivals, advances and restored clocks at or below it, and
// flash's fault caps bound one flash operation, so no event time can
// overflow the int64 clock.
const Horizon Time = 1 << 62

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

// event is one queued callback.
type event struct {
	at    Time
	seq   uint64 // schedule order, breaks same-lane ties deterministically
	fn    Event
	timer *Timer // owning timer, nil for At/After
	lane  int32  // same-instant ordering class; lower lanes fire first
}

// before orders events by (at, lane, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// Timer is a reusable scheduling slot for components that fire the same
// callback over and over: the callback is bound once, so scheduling through
// AtTimer/AfterTimer allocates nothing. A Timer tracks at most one pending
// schedule at a time.
type Timer struct {
	fn      Event
	lane    int32
	pending bool
}

// NewTimer returns a Timer that runs fn when it fires, on lane 0.
func NewTimer(fn Event) *Timer { return &Timer{fn: fn} }

// SetLane assigns the timer's same-instant ordering lane. Components owned
// by one device channel set the channel's lane once at construction; the
// timer must not be pending.
func (t *Timer) SetLane(lane int32) {
	if t.pending {
		panic("sim: SetLane on a pending timer")
	}
	t.lane = lane
}

// Pending reports whether the timer is scheduled and has not yet fired.
func (t *Timer) Pending() bool { return t.pending }

// Engine is the simulation event loop.
type Engine struct {
	now   Time
	seq   uint64
	heap  []event // 4-ary min-heap ordered by (at, lane, seq)
	fired uint64
}

// NewEngine returns an Engine at time zero with an empty event queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.heap) }

// schedule pushes an event onto the heap.
func (e *Engine) schedule(at Time, fn Event, t *Timer, lane int32) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := event{at: at, seq: e.seq, fn: fn, timer: t, lane: lane}
	e.seq++
	e.heap = append(e.heap, ev)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// removeRoot deletes the earliest event, restoring heap order.
func (e *Engine) removeRoot() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback references
	h = h[:n]
	e.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
}

// At schedules fn to run at absolute time at, on lane 0. Scheduling in the
// past panics: that is always a model bug, and silently clamping would
// corrupt causality.
func (e *Engine) At(at Time, fn Event) { e.schedule(at, fn, nil, 0) }

// After schedules fn to run delay nanoseconds from now, on lane 0.
func (e *Engine) After(delay Time, fn Event) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.schedule(e.now+delay, fn, nil, 0)
}

// AtTimer schedules t's callback at absolute time at, on t's lane. The
// timer must not already be pending: components that reuse a timer are
// responsible for one schedule at a time, and double-scheduling is always a
// model bug.
func (e *Engine) AtTimer(at Time, t *Timer) {
	if t.pending {
		panic("sim: timer already pending")
	}
	e.schedule(at, t.fn, t, t.lane)
	t.pending = true
}

// AfterTimer schedules t's callback delay nanoseconds from now.
func (e *Engine) AfterTimer(delay Time, t *Timer) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtTimer(e.now+delay, t)
}

// Reset returns the engine to time zero with an empty event queue, as if
// freshly constructed, but with the heap's storage retained, so a reused
// engine schedules its next run without growing allocations. Every queued
// event is dropped unfired, and its owning Timer becomes non-pending. The
// sequence counter restarts at zero, so a reset engine breaks same-instant
// ties exactly like a new one: the property device reuse needs for
// run-for-run identical timelines.
func (e *Engine) Reset() {
	for i := range e.heap {
		if t := e.heap[i].timer; t != nil {
			t.pending = false
		}
		e.heap[i] = event{}
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.fired = 0, 0, 0
}

// step executes the earliest event. Its timer, if any, is non-pending
// before the callback runs, so the callback may re-arm it.
func (e *Engine) step() {
	top := &e.heap[0]
	at, fn, t := top.at, top.fn, top.timer
	e.removeRoot()
	if t != nil {
		t.pending = false
	}
	e.now = at
	e.fired++
	fn(at)
}

// Run executes events until the queue drains or the event budget is
// exhausted. A budget of 0 means unlimited. It returns the time of the last
// executed event.
func (e *Engine) Run(budget uint64) Time {
	for len(e.heap) > 0 {
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
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
