package core

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

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
		for _, m := range io.Mem {
			m.Addr = flash.Addr{
				Chip:  flash.ChipID(rng.Intn(fab.geo.NumChips())),
				Die:   rng.Intn(fab.geo.DiesPerChip),
				Plane: rng.Intn(fab.geo.PlanesPerDie),
				Block: rng.Intn(fab.geo.BlocksPerPlane),
				Page:  rng.Intn(fab.geo.PagesPerBlock),
			}
		}
		q.Enqueue(0, io)
		for _, m := range io.Mem {
			fab.rx.Add(m)
		}
	}
	return fab, q
}

// BenchmarkSelect times one Select call per scheduler on selectQueue's
// queue. Nothing commits between calls, so every iteration selects from
// the same queue: for SPK1 and SPK3 that is FARO grouping of up to
// GroupCap candidates per chip, until each chip's free slots are filled.
func BenchmarkSelect(b *testing.B) {
	scheds := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewVAS() },
		func() sched.Scheduler { return sched.NewPAS() },
		func() sched.Scheduler { return NewSPK1() },
		func() sched.Scheduler { return NewSPK2() },
		func() sched.Scheduler { return NewSPK3() },
	}
	for _, mk := range scheds {
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
}

// TestSelectAllocFree pins the claim in Sprinkler's doc comment: once its
// scratch buffers have grown, Select performs no heap allocation.
func TestSelectAllocFree(t *testing.T) {
	fab, q := selectQueue()
	s := NewSPK3()
	if len(s.Select(0, q, fab)) == 0 {
		t.Fatal("nothing selected")
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Select(0, q, fab) }); allocs != 0 {
		t.Fatalf("warmed SPK3 Select made %v allocations per call, want 0", allocs)
	}
}
