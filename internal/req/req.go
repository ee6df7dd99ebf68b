// Package req defines the host-side request model shared by the NVMHC,
// the schedulers and the FTL: host I/O requests (tags in the device-level
// queue), the page-sized memory requests they decompose into, and the
// per-tag completion bitmap used to return data in order (§4.4).
package req

import (
	"fmt"

	"sprinkler/internal/flash"
	"sprinkler/internal/sim"
)

// Kind is the host operation type.
type Kind int

const (
	// Read moves data from flash to the host.
	Read Kind = iota
	// Write moves data from the host to flash.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// FlashOp maps the host kind to the flash operation that serves it.
func (k Kind) FlashOp() flash.Op {
	if k == Read {
		return flash.OpRead
	}
	return flash.OpProgram
}

// LPN is a logical page number: the host block address divided by the
// atomic flash I/O unit (one page).
type LPN int64

// State tracks a memory request through the §2.1 I/O service routine.
type State int

const (
	// StateQueued: the parent tag is secured in the device-level queue but
	// this request has not been composed (no data movement yet).
	StateQueued State = iota
	// StateComposed: data movement between host and SSD was initiated and
	// the request has a physical address.
	StateComposed
	// StateCommitted: handed to a flash controller's per-chip queue.
	StateCommitted
	// StateIssued: part of an executing flash transaction.
	StateIssued
	// StateDone: payload served.
	StateDone
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateComposed:
		return "composed"
	case StateCommitted:
		return "committed"
	case StateIssued:
		return "issued"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// IO is one host I/O request. The host addresses a contiguous LPN range;
// the NVMHC splits it into len(Mem) page-sized memory requests.
type IO struct {
	ID      int64
	Kind    Kind
	Start   LPN // first logical page
	Pages   int // length in pages
	Arrival sim.Time
	FUA     bool // force-unit-access: must not be reordered (§4.4)

	// QSlot is the tag slot this I/O occupies in the device-level queue
	// (-1 when unqueued) and Seq its admission sequence number. Both are
	// owned by nvmhc.Queue; QSlot makes tag release O(1) and Seq gives
	// schedulers a total admission order without rescanning the queue.
	QSlot int32
	Seq   uint64

	// Lifecycle timestamps, filled by the device model.
	Enqueued  sim.Time // secured a tag in the device-level queue
	FirstData sim.Time // first memory request composed
	Done      sim.Time // all memory requests served and data returned

	// Failed marks an I/O that completed with an unrecoverable error: an
	// uncorrectable read, a write whose rewrite ladder exhausted, or a
	// write refused because the device degraded to read-only mode.
	Failed bool

	queued int32 // members still in StateQueued; see Queued

	Mem          []*Mem
	mems         []Mem // backing storage for Mem, kept for Reset reuse
	doneMask     Bitmap
	maskBuf      [1]uint64 // inline doneMask storage for I/Os <= 64 pages
	nDone        int
	firstDataSet bool
}

// Queued returns how many of the I/O's memory requests are still in
// StateQueued. Every member starts queued and leaves that state once,
// through Mem.Compose, so schedulers can skip an I/O with nothing left to
// select without walking its members.
func (io *IO) Queued() int { return int(io.queued) }

// NoteFirstData records the first data-movement instant once; later calls
// are no-ops.
func (io *IO) NoteFirstData(now sim.Time) {
	if !io.firstDataSet {
		io.firstDataSet = true
		io.FirstData = now
	}
}

// NewIO builds an I/O and its memory requests. Physical addresses are
// attached later by the FTL preprocessor.
func NewIO(id int64, kind Kind, start LPN, pages int, arrival sim.Time) *IO {
	io := &IO{}
	io.Reset(id, kind, start, pages, arrival)
	return io
}

// Reset re-initializes io in place for a new request, reusing the member
// array, member-pointer slice and completion bitmap when their capacity
// suffices — the free-list primitive that makes steady-state streaming
// allocation-free. The caller must guarantee the previous request fully
// completed (no queue slot, no ready-index slot, no in-flight member).
// FUA is cleared; set it after Reset if needed.
func (io *IO) Reset(id int64, kind Kind, start LPN, pages int, arrival sim.Time) {
	if pages <= 0 {
		panic(fmt.Sprintf("req: IO %d with %d pages", id, pages))
	}
	io.ID, io.Kind, io.Start, io.Pages, io.Arrival = id, kind, start, pages, arrival
	io.FUA = false
	io.QSlot, io.Seq = -1, 0
	io.Enqueued, io.FirstData, io.Done = 0, 0, 0
	io.Failed = false
	io.nDone = 0
	io.queued = int32(pages)
	io.firstDataSet = false
	// Round grown capacities up so a recycled I/O converges on the
	// workload's largest request size after a few reuses instead of
	// reallocating on every size change.
	rounded := 8
	for rounded < pages {
		rounded *= 2
	}
	// Prefer a previously grown heap bitmap (cap > 1) over the inline
	// word so mixed-size reuse doesn't reallocate it for every large
	// request; fall back to maskBuf for small I/Os without one.
	words := (pages + 63) / 64
	if cap(io.doneMask) >= words && cap(io.doneMask) > 1 {
		io.doneMask = io.doneMask[:words]
		for i := range io.doneMask {
			io.doneMask[i] = 0
		}
	} else if pages <= 64 {
		io.maskBuf[0] = 0
		io.doneMask = io.maskBuf[:]
	} else {
		io.doneMask = NewBitmap(rounded)[:words]
	}
	if cap(io.mems) >= pages && cap(io.Mem) >= pages {
		io.mems = io.mems[:pages]
		io.Mem = io.Mem[:pages]
	} else {
		io.mems = make([]Mem, pages, rounded)
		io.Mem = make([]*Mem, pages, rounded)
	}
	for i := 0; i < pages; i++ {
		io.mems[i] = Mem{IO: io, Index: i, LPN: start + LPN(i), ReadySlot: -1}
		io.Mem[i] = &io.mems[i]
	}
}

// Bytes returns the transfer size given a page size.
func (io *IO) Bytes(pageSize int) int64 { return int64(io.Pages) * int64(pageSize) }

// Latency returns the device-level response time (per I/O request, as in
// §5.2), valid once the I/O completed.
func (io *IO) Latency() sim.Time { return io.Done - io.Arrival }

// QueueWait returns the time between arrival and the first composed memory
// request.
func (io *IO) QueueWait() sim.Time { return io.FirstData - io.Arrival }

// MarkDone records completion of memory request index i and returns true
// when the whole I/O is finished. Marking twice panics: double completion
// is a controller bug.
func (io *IO) MarkDone(i int) bool {
	if io.doneMask.Get(i) {
		panic(fmt.Sprintf("req: IO %d mem %d completed twice", io.ID, i))
	}
	io.doneMask.Set(i)
	io.nDone++
	return io.nDone == io.Pages
}

// String renders a compact description.
func (io *IO) String() string {
	return fmt.Sprintf("io#%d{%v lpn=%d+%d}", io.ID, io.Kind, io.Start, io.Pages)
}

// Mem is one page-sized flash memory request (§2.1: "a memory request
// whose data size is the same as the atomic flash I/O unit size").
type Mem struct {
	IO    *IO
	Index int // position within the parent I/O
	LPN   LPN
	State State

	// Addr is the physical target, resolved by the FTL preprocessor when
	// the tag is secured (physical layout identification) and re-resolved
	// by the readdressing callback after live data migration. Resolved
	// records that preprocessing completed (writes allocate exactly once).
	Addr     flash.Addr
	Resolved bool

	// ReadySlot is this request's position in the per-chip ready index
	// while it awaits scheduling (-1 when not indexed). Owned by
	// sched.ReadyIndex; it makes removal on commitment O(1).
	ReadySlot int32

	// Rewrites counts program-fail recoveries for this member: each one
	// remaps the page to a fresh block and re-composes the write. Bounded
	// by the device's rewrite ladder; reset with the parent I/O.
	Rewrites uint8

	Composed  sim.Time
	Committed sim.Time
	Finished  sim.Time
}

// Compose moves a queued request to StateComposed at time now (its data
// movement begins) and drops its I/O's queued count. It is the only way a
// request leaves StateQueued.
func (m *Mem) Compose(now sim.Time) {
	m.State = StateComposed
	m.Composed = now
	m.IO.queued--
}

// Op returns the flash operation serving this request.
func (m *Mem) Op() flash.Op { return m.IO.Kind.FlashOp() }

// String renders a compact description.
func (m *Mem) String() string {
	return fmt.Sprintf("mem{io=%d idx=%d lpn=%d %v %v}", m.IO.ID, m.Index, m.LPN, m.Addr, m.State)
}

// Bitmap is the per-queue-entry memory request bitmap from §4.4: "NVMHC
// maintains an eight byte memory request bitmap ... Each bit indicates an
// issued memory request". It grows beyond 64 bits for large I/Os.
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold n bits.
func NewBitmap(n int) Bitmap {
	return make(Bitmap, (n+63)/64)
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
