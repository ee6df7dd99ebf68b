package core

import (
	"slices"
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// TestFAROIncrementalMatchesRebuilt is the randomized equivalence suite
// for index-driven selection over a simulation's lifetime: one long-lived
// Sprinkler reuses its scratch buffers across many admit/commit/readdress
// rounds against a ready index the rounds keep mutating, while every round
// a brand-new Sprinkler selects from scratch over the scan path. Picks must
// be pointer-exact at every round — nothing a Select leaves behind may
// change the next one. It extends TestIndexSelectMatchesScan, which covers
// a single fresh Select, to the stateful lifetime of a simulation.
func TestFAROIncrementalMatchesRebuilt(t *testing.T) {
	for _, mk := range []func() *Sprinkler{NewSPK1, NewSPK2, NewSPK3} {
		name := mk().Name()
		t.Run(name, func(t *testing.T) {
			rng := sim.NewRand(2024)
			for trial := 0; trial < 20; trial++ {
				idxFab := newFakeFabric()
				idxFab.rx = sched.NewReadyIndex(idxFab.geo)
				scanFab := newFakeFabric()
				q := nvmhc.NewQueue(64)

				inc := mk() // persistent: scratch survives across rounds
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
					// and the ready index drops them.
					if len(gotInc) > 0 {
						k := 1 + rng.Intn(len(gotInc))
						for _, m := range gotInc[:k] {
							m.Compose(0)
							idxFab.rx.Remove(m)
						}
					}

					// Occasionally readdress one still-queued request
					// (live-data migration, which stays on the request's
					// chip): both paths must see the new address, the
					// index-driven one via the index hook.
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
					queued = releaseSelected(q, queued)
					admit(rng.Intn(4))
				}
			}
		})
	}
}

// TestFAROBudgetAndHazardMatchScan is the differential suite for the two
// FARO corners TestFAROIncrementalMatchesRebuilt does not reach: chips
// holding more candidates than free slots, and §4.4 write-after-read
// hazards among one chip's candidates. Per-chip outstanding counts are
// drawn over 0..Slots, and I/Os draw from a small LPN pool whose pages map
// to chips by LPN, so reads and writes of one logical page share a chip.
// A long-lived index-driven Sprinkler must pick exactly what a fresh one
// picks over the scan path, which orders every candidate before cutting
// to the free slots.
func TestFAROBudgetAndHazardMatchScan(t *testing.T) {
	for _, mk := range []func() *Sprinkler{NewSPK1, NewSPK3} {
		name := mk().Name()
		t.Run(name, func(t *testing.T) {
			rng := sim.NewRand(77)
			var truncated, moved int
			for trial := 0; trial < 20; trial++ {
				idxFab := newFakeFabric()
				idxFab.rx = sched.NewReadyIndex(idxFab.geo)
				scanFab := newFakeFabric()
				g := idxFab.geo
				q := nvmhc.NewQueue(64)

				inc := mk()
				nextID := int64(trial * 10_000)
				var queued []*req.IO

				admit := func(n int) {
					for i := 0; i < n && !q.Full(); i++ {
						kind := req.Read
						if rng.Bool(0.5) {
							kind = req.Write
						}
						io := req.NewIO(nextID, kind, req.LPN(rng.Intn(24)), 1+rng.Intn(4), 0)
						nextID++
						for _, m := range io.Mem {
							m.Addr = flash.Addr{
								Chip:  flash.ChipID(int(m.LPN) % g.NumChips()),
								Die:   rng.Intn(g.DiesPerChip),
								Plane: rng.Intn(g.PlanesPerDie),
								Block: rng.Intn(2),
								Page:  rng.Intn(2),
							}
						}
						q.Enqueue(0, io)
						for _, m := range io.Mem {
							idxFab.rx.Add(m)
						}
						queued = append(queued, io)
					}
				}

				admit(40)
				for round := 0; round < 30; round++ {
					slots := inc.Slots
					for c := 0; c < g.NumChips(); c++ {
						o := rng.Intn(slots + 1)
						idxFab.out[flash.ChipID(c)] = o
						scanFab.out[flash.ChipID(c)] = o
					}
					roundTrunc, roundMoved := faroCorners(mk(), g, q, scanFab)
					if roundTrunc {
						truncated++
					}
					if roundMoved {
						moved++
					}

					gotInc := append([]*req.Mem(nil), inc.Select(0, q, idxFab)...)
					gotScan := append([]*req.Mem(nil), mk().Select(0, q, scanFab)...)
					if len(gotInc) != len(gotScan) {
						t.Fatalf("trial %d round %d: index picked %d, scan %d",
							trial, round, len(gotInc), len(gotScan))
					}
					for i := range gotInc {
						if gotInc[i] != gotScan[i] {
							t.Fatalf("trial %d round %d: pick %d differs: index io#%d/%d, scan io#%d/%d",
								trial, round, i,
								gotInc[i].IO.ID, gotInc[i].Index,
								gotScan[i].IO.ID, gotScan[i].Index)
						}
					}

					if len(gotInc) > 0 {
						k := 1 + rng.Intn(len(gotInc))
						for _, m := range gotInc[:k] {
							m.Compose(0)
							idxFab.rx.Remove(m)
						}
					}

					queued = releaseSelected(q, queued)
					admit(rng.Intn(8))
				}
			}
			// Without both corners the comparison above is vacuous.
			if truncated < 20 {
				t.Errorf("only %d rounds had a chip with more candidates than free slots", truncated)
			}
			if moved < 20 {
				t.Errorf("only %d rounds had enforceReadFirst move a request", moved)
			}
		})
	}
}

// releaseSelected releases from q every I/O in queued with no member left
// in StateQueued and returns the rest.
func releaseSelected(q *nvmhc.Queue, queued []*req.IO) []*req.IO {
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
	return keep
}

// faroCorners reports, for the candidates s's scan path would gather from
// q, whether some chip with free slots holds more candidates than it has
// free, and whether enforceReadFirst changes which requests, or in what
// order, fill some chip's free slots out of its greedy FARO group order.
func faroCorners(s *Sprinkler, g flash.Geometry, q *nvmhc.Queue, fab *fakeFabric) (truncated, moved bool) {
	window := 0
	if !s.UseRIOS {
		window = s.Window
	}
	byChip := map[flash.ChipID][]*req.Mem{}
	for _, m := range sched.CandidateWindow(q, window) {
		byChip[m.Addr.Chip] = append(byChip[m.Addr.Chip], m)
	}
	for c, list := range byChip {
		free := s.Slots - fab.Outstanding(c)
		if free <= 0 {
			continue
		}
		if len(list) > s.GroupCap {
			list = list[:s.GroupCap]
		}
		if len(list) > free {
			truncated = true
		}
		var grouped []*req.Mem
		remaining := append([]*req.Mem(nil), list...)
		for len(remaining) > 0 {
			s.bestGroup(g, remaining)
			grouped = append(grouped, s.groupBest...)
			keep := remaining[:0]
			for _, m := range remaining {
				if !slices.Contains(s.groupBest, m) {
					keep = append(keep, m)
				}
			}
			remaining = keep
		}
		reordered := slices.Clone(grouped)
		enforceReadFirst(reordered)
		n := min(free, len(grouped))
		if !slices.Equal(grouped[:n], reordered[:n]) {
			moved = true
		}
	}
	return truncated, moved
}
