package core

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// TestIndexSelectMatchesScan cross-checks the two selection paths: for
// randomized queue contents, Select driven by the incremental ready index
// must return exactly the memory requests, in exactly the order, that the
// full queue scan produces. This pins the tentpole claim that the index is
// a pure acceleration structure, not a behavior change.
func TestIndexSelectMatchesScan(t *testing.T) {
	for _, mk := range []func() *Sprinkler{NewSPK1, NewSPK2, NewSPK3} {
		name := mk().Name()
		t.Run(name, func(t *testing.T) {
			rng := sim.NewRand(99)
			for trial := 0; trial < 50; trial++ {
				scanFab := newFakeFabric()
				idxFab := newFakeFabric()
				idxFab.rx = sched.NewReadyIndex(idxFab.geo)

				q := nvmhc.NewQueue(16)
				nIOs := 1 + rng.Intn(12)
				for i := 0; i < nIOs; i++ {
					pages := 1 + rng.Intn(6)
					io := req.NewIO(int64(trial*100+i), req.Read, req.LPN(i*64), pages, 0)
					for _, m := range io.Mem {
						m.Addr = flash.Addr{
							Chip:  flash.ChipID(rng.Intn(idxFab.geo.NumChips())),
							Die:   rng.Intn(idxFab.geo.DiesPerChip),
							Plane: rng.Intn(idxFab.geo.PlanesPerDie),
							Block: rng.Intn(idxFab.geo.BlocksPerPlane),
							Page:  rng.Intn(idxFab.geo.PagesPerBlock),
						}
					}
					q.Enqueue(0, io)
					for _, m := range io.Mem {
						idxFab.rx.Add(m)
					}
					// Mark a few members as already selected: both paths
					// must skip them.
					for _, m := range io.Mem {
						if rng.Bool(0.2) {
							m.Compose(0)
							idxFab.rx.Remove(m)
						}
					}
				}
				// Random pre-existing per-chip pressure.
				for c := 0; c < idxFab.geo.NumChips(); c++ {
					o := rng.Intn(4)
					scanFab.out[flash.ChipID(c)] = o
					idxFab.out[flash.ChipID(c)] = o
				}

				gotScan := append([]*req.Mem(nil), mk().Select(0, q, scanFab)...)
				gotIdx := append([]*req.Mem(nil), mk().Select(0, q, idxFab)...)
				if len(gotScan) != len(gotIdx) {
					t.Fatalf("trial %d: scan selected %d, index selected %d",
						trial, len(gotScan), len(gotIdx))
				}
				for i := range gotScan {
					if gotScan[i] != gotIdx[i] {
						t.Fatalf("trial %d: position %d differs: scan io#%d/%d, index io#%d/%d",
							trial, i,
							gotScan[i].IO.ID, gotScan[i].Index,
							gotIdx[i].IO.ID, gotIdx[i].Index)
					}
				}
			}
		})
	}
}
