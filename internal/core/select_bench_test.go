package core

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// schedulers lists the five schedulers BenchmarkSelect and
// TestSelectAllocFree cover.
var schedulers = []func() sched.Scheduler{
	func() sched.Scheduler { return sched.NewVAS() },
	func() sched.Scheduler { return sched.NewPAS() },
	func() sched.Scheduler { return NewSPK1() },
	func() sched.Scheduler { return NewSPK2() },
	func() sched.Scheduler { return NewSPK3() },
}

// selectQueue returns the 4-chip fake fabric, indexed through a real
// ReadyIndex, and a full queue of 64 seeded mixed reads and writes (1-6
// pages each) that BenchmarkSelect and TestSelectAllocFree select from.
func selectQueue() (*fakeFabric, *nvmhc.Queue) {
	fab := newFakeFabric()
	fab.rx = sched.NewReadyIndex(fab.geo)
	q := nvmhc.NewQueue(64)
	rng := sim.NewRand(7)
	for id := int64(0); !q.Full(); id++ {
		kind := req.Read
		if rng.Bool(0.3) {
			kind = req.Write
		}
		io := req.NewIO(id, kind, req.LPN(id*64), 1+rng.Intn(6), 0)
		place(fab, rng, io)
		q.Enqueue(0, io)
		for _, m := range io.Mem {
			fab.rx.Add(m)
		}
	}
	return fab, q
}

// place gives each of io's memory requests a random physical address.
func place(fab *fakeFabric, rng *sim.Rand, io *req.IO) {
	for _, m := range io.Mem {
		m.Addr = flash.Addr{
			Chip:  flash.ChipID(rng.Intn(fab.geo.NumChips())),
			Die:   rng.Intn(fab.geo.DiesPerChip),
			Plane: rng.Intn(fab.geo.PlanesPerDie),
			Block: rng.Intn(fab.geo.BlocksPerPlane),
			Page:  rng.Intn(fab.geo.PagesPerBlock),
		}
	}
}

// pumpLoop replays the device's pump on selectQueue's queue, which stays
// full: each cycle serves the oldest in-flight request, frees its chip
// slot, refills a finished I/O's tag with a new I/O of the same size, and
// then calls Select and composes its batch until Select returns nothing.
// Most cycles free one slot and end on a Select that returns nothing, so
// a scheduler's cost here is what it pays to find that out.
type pumpLoop struct {
	fab      *fakeFabric
	q        *nvmhc.Queue
	s        sched.Scheduler
	rng      *sim.Rand
	inflight [512]*req.Mem // ring, oldest at head; holds a full queue's 64 × 6 pages
	head, n  int
	nextID   int64
}

func newPumpLoop(s sched.Scheduler) *pumpLoop {
	fab, q := selectQueue()
	l := &pumpLoop{fab: fab, q: q, s: s, rng: sim.NewRand(9), nextID: int64(q.Len())}
	l.pump()
	return l
}

// cycle serves one in-flight request and pumps.
func (l *pumpLoop) cycle() {
	m := l.inflight[l.head]
	l.inflight[l.head] = nil
	l.head = (l.head + 1) % len(l.inflight)
	l.n--
	l.fab.out[m.Addr.Chip]--
	m.State = req.StateDone
	if io := m.IO; io.MarkDone(m.Index) {
		l.q.Release(0, io)
		io.Reset(l.nextID, io.Kind, req.LPN(l.nextID*64), io.Pages, 0)
		l.nextID++
		place(l.fab, l.rng, io)
		l.q.Enqueue(0, io)
		for _, m := range io.Mem {
			l.fab.rx.Add(m)
		}
	}
	l.pump()
}

func (l *pumpLoop) pump() {
	for {
		batch := l.s.Select(0, l.q, l.fab)
		if len(batch) == 0 {
			return
		}
		for _, m := range batch {
			m.Compose(0)
			l.fab.out[m.Addr.Chip]++
			l.fab.rx.Remove(m)
			l.inflight[(l.head+l.n)%len(l.inflight)] = m
			l.n++
		}
	}
}

// BenchmarkSelect times Select per scheduler. The top rows make one call
// on selectQueue's queue, and nothing commits between calls, so every
// iteration selects from the same queue: for SPK1 and SPK3 that is FARO
// grouping of up to GroupCap candidates per chip, until each chip's free
// slots are filled. The pump rows time one pumpLoop cycle, the device's
// "commit, then call Select again" on a queue that stays saturated.
func BenchmarkSelect(b *testing.B) {
	for _, mk := range schedulers {
		s := mk()
		b.Run(s.Name(), func(b *testing.B) {
			fab, q := selectQueue()
			if len(s.Select(0, q, fab)) == 0 {
				b.Fatal("nothing selected")
			}
			b.ReportAllocs()
			for b.Loop() {
				s.Select(0, q, fab)
			}
		})
	}
	b.Run("pump", func(b *testing.B) {
		for _, mk := range schedulers {
			s := mk()
			b.Run(s.Name(), func(b *testing.B) {
				l := newPumpLoop(s)
				b.ReportAllocs()
				for b.Loop() {
					l.cycle()
				}
			})
		}
	})
}

// TestSelectAllocFree pins the claim that once a scheduler's scratch
// buffers have grown, its Select performs no heap allocation, for all
// five schedulers: on a queue that never changes and in the pump cycle.
func TestSelectAllocFree(t *testing.T) {
	for _, mk := range schedulers {
		s := mk()
		t.Run(s.Name(), func(t *testing.T) {
			fab, q := selectQueue()
			if len(s.Select(0, q, fab)) == 0 {
				t.Fatal("nothing selected")
			}
			if allocs := testing.AllocsPerRun(20, func() { s.Select(0, q, fab) }); allocs != 0 {
				t.Fatalf("warmed %s Select made %v allocations per call, want 0", s.Name(), allocs)
			}
			l := newPumpLoop(mk())
			for range 2000 {
				l.cycle()
			}
			if allocs := testing.AllocsPerRun(200, l.cycle); allocs != 0 {
				t.Fatalf("warmed %s pump cycle made %v allocations, want 0", s.Name(), allocs)
			}
		})
	}
}
