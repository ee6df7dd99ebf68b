package core

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// TestFAROIncrementalMatchesRebuilt is the randomized equivalence suite
// for the incremental FARO grouping: one long-lived Sprinkler carries its
// per-chip grouping caches across many admit/commit/readdress rounds,
// while every round a brand-new Sprinkler rebuilds selection from scratch
// over the scan path. Picks must be pointer-exact at every round — the
// memoized grouping is an acceleration structure, never a behavior
// change. It extends TestIndexSelectMatchesScan, which covers a single
// fresh Select, to the stateful lifetime of a simulation.
func TestFAROIncrementalMatchesRebuilt(t *testing.T) {
	for _, mk := range []func() *Sprinkler{NewSPK1, NewSPK2, NewSPK3} {
		name := mk().Name()
		t.Run(name, func(t *testing.T) {
			rng := sim.NewRand(2024)
			for trial := 0; trial < 20; trial++ {
				idxFab := newFakeFabric()
				idxFab.rx = sched.NewReadyIndex(idxFab.geo.NumChips())
				scanFab := newFakeFabric()
				q := nvmhc.NewQueue(64)

				inc := mk() // persistent: caches survive across rounds
				nextID := int64(trial * 10_000)
				var queued []*req.IO

				admit := func(n int) {
					for i := 0; i < n && !q.Full(); i++ {
						pages := 1 + rng.Intn(6)
						kind := req.Read
						if rng.Bool(0.3) {
							kind = req.Write
						}
						io := req.NewIO(nextID, kind, req.LPN(nextID*64), pages, 0)
						nextID++
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
						queued = append(queued, io)
					}
				}

				admit(6)
				for round := 0; round < 40; round++ {
					// Random per-chip commitment pressure, mirrored on
					// both fabrics.
					for c := 0; c < idxFab.geo.NumChips(); c++ {
						o := rng.Intn(3)
						idxFab.out[flash.ChipID(c)] = o
						scanFab.out[flash.ChipID(c)] = o
					}

					gotInc := append([]*req.Mem(nil), inc.Select(0, q, idxFab)...)
					gotScan := append([]*req.Mem(nil), mk().Select(0, q, scanFab)...)
					if len(gotInc) != len(gotScan) {
						t.Fatalf("trial %d round %d: incremental picked %d, rebuilt %d",
							trial, round, len(gotInc), len(gotScan))
					}
					for i := range gotInc {
						if gotInc[i] != gotScan[i] {
							t.Fatalf("trial %d round %d: pick %d differs: inc io#%d/%d, rebuilt io#%d/%d",
								trial, round, i,
								gotInc[i].IO.ID, gotInc[i].Index,
								gotScan[i].IO.ID, gotScan[i].Index)
						}
					}

					// Commit a random prefix of the picks: states advance
					// and the ready index drops them — the mutation the
					// incremental caches must notice.
					if len(gotInc) > 0 {
						k := 1 + rng.Intn(len(gotInc))
						for _, m := range gotInc[:k] {
							m.State = req.StateComposed
							idxFab.rx.Remove(m)
						}
					}

					// Occasionally readdress one still-queued request
					// (live-data migration, which stays on the request's
					// chip): both paths must see the new address, the
					// incremental one via the index hook.
					if rng.Bool(0.3) {
						var cand []*req.Mem
						for _, io := range queued {
							for _, m := range io.Mem {
								if m.State == req.StateQueued {
									cand = append(cand, m)
								}
							}
						}
						if len(cand) > 0 {
							m := cand[rng.Intn(len(cand))]
							dst := flash.Addr{
								Chip:  m.Addr.Chip,
								Die:   rng.Intn(idxFab.geo.DiesPerChip),
								Plane: rng.Intn(idxFab.geo.PlanesPerDie),
								Block: rng.Intn(idxFab.geo.BlocksPerPlane),
								Page:  rng.Intn(idxFab.geo.PagesPerBlock),
							}
							idxFab.rx.Readdress(m, dst)
						}
					}

					// Release fully-selected I/Os (their tags free up) and
					// admit a few new ones.
					keep := queued[:0]
					for _, io := range queued {
						done := true
						for _, m := range io.Mem {
							if m.State == req.StateQueued {
								done = false
								break
							}
						}
						if done {
							q.Release(0, io)
						} else {
							keep = append(keep, io)
						}
					}
					queued = keep
					admit(rng.Intn(4))
				}
			}
		})
	}
}
