package core

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// BenchmarkSelect times one Select call per scheduler on a fixed, seeded
// queue of 64 mixed reads and writes (1-6 pages each) indexed through a
// real ReadyIndex on the 4-chip fake fabric. Nothing commits between
// calls, so every iteration selects from the same queue: for SPK1 and
// SPK3 that is a full FARO grouping of up to GroupCap candidates per chip.
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
			fab := newFakeFabric()
			fab.rx = sched.NewReadyIndex(fab.geo.NumChips())
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
