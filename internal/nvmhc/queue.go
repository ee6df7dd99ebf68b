// Package nvmhc models the non-volatile memory host controller's
// device-level queue (§2.1): a bounded, NCQ-like tag store that admits host
// I/O requests, tracks their lifecycle, and accounts the queue-full stall
// time reported in Figure 10d of the paper.
package nvmhc

import (
	"fmt"

	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// slot is one NCQ tag: the occupying I/O plus arrival-order links.
type slot struct {
	io         *req.IO
	prev, next int32
}

// Queue is the device-level queue. Entries stay in arrival order; an entry
// is released when its I/O completes. Out-of-order service is expressed by
// schedulers choosing memory requests from any entry, not by reordering
// the queue itself — exactly how NCQ tags behave.
//
// Tags live in a fixed slot array threaded as a doubly-linked list in
// arrival order. Each queued I/O records its slot (req.IO.QSlot), so
// Release is O(1) instead of a scan — completions are the hottest queue
// operation in a long simulation.
type Queue struct {
	capacity int
	slots    []slot
	freeSlot int32 // free-list head through slot.next, -1 when empty
	head     int32 // oldest queued I/O, -1 when empty
	tail     int32 // newest queued I/O, -1 when empty
	count    int
	fuaCount int // queued FUA entries (schedulers honour the §4.4 barrier)

	full     sim.TimedCounter
	admitted int64
	released int64
}

// NewQueue returns an empty queue with the given tag capacity.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("nvmhc: queue capacity %d", capacity))
	}
	q := &Queue{
		capacity: capacity,
		slots:    make([]slot, capacity),
		head:     -1,
		tail:     -1,
	}
	for i := range q.slots {
		q.slots[i].next = int32(i) + 1
	}
	q.slots[capacity-1].next = -1
	q.freeSlot = 0
	return q
}

// Reset empties the queue for a new run, rebuilding the free list in the
// same slot order NewQueue produces and restarting the admission sequence
// at zero — reused queues assign the same Seq numbers a fresh queue would,
// which schedulers' admission-order tie-breaking depends on.
func (q *Queue) Reset() {
	for i := range q.slots {
		q.slots[i] = slot{next: int32(i) + 1}
	}
	q.slots[q.capacity-1].next = -1
	q.freeSlot = 0
	q.head, q.tail = -1, -1
	q.count, q.fuaCount = 0, 0
	q.full = sim.TimedCounter{}
	q.admitted, q.released = 0, 0
}

// Len returns the number of occupied tags.
func (q *Queue) Len() int { return q.count }

// Full reports whether every tag is occupied.
func (q *Queue) Full() bool { return q.count >= q.capacity }

// Empty reports whether no tag is occupied.
func (q *Queue) Empty() bool { return q.count == 0 }

// HasFUA reports whether any queued entry carries the force-unit-access
// flag, i.e. whether the §4.4 reorder barrier is in effect.
func (q *Queue) HasFUA() bool { return q.fuaCount > 0 }

// Enqueue secures a tag for io at time now. It returns false when the
// queue is full (the host must hold the request — that time is the "queue
// stall" the paper measures).
func (q *Queue) Enqueue(now sim.Time, io *req.IO) bool {
	if q.Full() {
		return false
	}
	io.Enqueued = now
	io.Seq = uint64(q.admitted)
	idx := q.freeSlot
	q.freeSlot = q.slots[idx].next
	q.slots[idx] = slot{io: io, prev: q.tail, next: -1}
	if q.tail >= 0 {
		q.slots[q.tail].next = idx
	} else {
		q.head = idx
	}
	q.tail = idx
	io.QSlot = idx
	q.count++
	if io.FUA {
		q.fuaCount++
	}
	q.admitted++
	q.full.Set(now, q.Full())
	return true
}

// Release frees io's tag in O(1). It panics if io is not queued: releasing
// an unknown tag is a controller bug.
func (q *Queue) Release(now sim.Time, io *req.IO) {
	idx := io.QSlot
	if idx < 0 || int(idx) >= len(q.slots) || q.slots[idx].io != io {
		panic(fmt.Sprintf("nvmhc: release of unqueued %v", io))
	}
	s := q.slots[idx]
	if s.prev >= 0 {
		q.slots[s.prev].next = s.next
	} else {
		q.head = s.next
	}
	if s.next >= 0 {
		q.slots[s.next].prev = s.prev
	} else {
		q.tail = s.prev
	}
	q.slots[idx] = slot{next: q.freeSlot}
	q.freeSlot = idx
	io.QSlot = -1
	q.count--
	if io.FUA {
		q.fuaCount--
	}
	q.released++
	q.full.Set(now, q.Full())
}

// Head returns the oldest queued I/O, or nil when the queue is empty.
func (q *Queue) Head() *req.IO {
	if q.head < 0 {
		return nil
	}
	return q.slots[q.head].io
}

// Next returns the I/O queued immediately after io (arrival order), or nil
// at the tail. io must be queued.
func (q *Queue) Next(io *req.IO) *req.IO {
	n := q.slots[io.QSlot].next
	if n < 0 {
		return nil
	}
	return q.slots[n].io
}

// SeqAt returns the admission sequence number of the i-th oldest queued
// entry (0-based), capped at the newest entry. It reports false when the
// queue is empty. Schedulers use it to bound candidate windows without
// materializing the entry list.
func (q *Queue) SeqAt(i int) (uint64, bool) {
	io := q.Head()
	if io == nil {
		return 0, false
	}
	for ; i > 0; i-- {
		n := q.Next(io)
		if n == nil {
			break
		}
		io = n
	}
	return io.Seq, true
}

// Entries returns the queued I/Os in arrival order. It allocates a fresh
// slice per call — a diagnostic/test helper; hot paths iterate with
// Head/Next instead.
func (q *Queue) Entries() []*req.IO {
	out := make([]*req.IO, 0, q.count)
	for io := q.Head(); io != nil; io = q.Next(io) {
		out = append(out, io)
	}
	return out
}

// FullTime returns the cumulative time the queue spent full, through now.
func (q *Queue) FullTime(now sim.Time) sim.Time { return q.full.Total(now) }

// Admitted returns the number of I/Os ever enqueued.
func (q *Queue) Admitted() int64 { return q.admitted }

// Released returns the number of I/Os ever released.
func (q *Queue) Released() int64 { return q.released }

// QueueState is the persistent state of a drained Queue: the lifetime
// admission/release counters (Seq assignment continues from Admitted)
// and the queue-full stall accounting. Tag occupancy is never part of a
// checkpoint — checkpoints are taken at quiescence, when every tag is
// free.
type QueueState struct {
	Admitted int64
	Released int64
	Full     sim.TimedCounterState
}

// State captures the queue's persistent counters. The queue must be
// empty (quiescent); occupied tags cannot be serialized.
func (q *Queue) State() (QueueState, error) {
	if q.count != 0 {
		return QueueState{}, fmt.Errorf("nvmhc: State with %d queued I/Os", q.count)
	}
	return QueueState{Admitted: q.admitted, Released: q.released, Full: q.full.State()}, nil
}

// SetState restores captured counters onto an empty queue, so the next
// Enqueue continues the admission sequence where the checkpointed run
// left off.
func (q *Queue) SetState(st QueueState) {
	if q.count != 0 {
		panic(fmt.Sprintf("nvmhc: SetState with %d queued I/Os", q.count))
	}
	q.admitted, q.released = st.Admitted, st.Released
	q.full.SetState(st.Full)
}
