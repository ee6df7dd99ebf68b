package flash

import (
	"fmt"
	"slices"
	"testing"

	"sprinkler/internal/sim"
)

// randomQueue draws a committed queue of n requests for geo whose
// addresses collide often: ops, dies, planes, blocks and pages come from
// small pools, so the queue mixes operations, conflicting planes, plane
// sharing with matching and mismatched offsets, and, with dense pools,
// enough compatible requests to truncate at MaxFLP. About one request in
// twenty names a second chip. Each request's Token is its queue position.
func randomQueue(rng *sim.Rand, geo Geometry, n int) []Request {
	ops := 1 + rng.Intn(3)
	offsets := 1 + rng.Intn(3)
	q := make([]Request, n)
	for i := range q {
		chip := ChipID(0)
		if rng.Bool(0.05) {
			chip = 1
		}
		q[i] = Request{
			Op: Op(rng.Intn(ops)),
			Addr: Addr{
				Chip:  chip,
				Die:   rng.Intn(geo.DiesPerChip),
				Plane: rng.Intn(geo.PlanesPerDie),
				Block: rng.Intn(offsets),
				Page:  rng.Intn(offsets),
			},
			Token: i,
		}
	}
	return q
}

// TestBuildMatchesReference holds the one-pass builder to the pairwise
// reference (BuildTransactionInto over CanJoin) on seeded random queues:
// the same members in the same order, and the same remaining queue in
// order. One Transaction and one Occupancy serve every case, across
// geometries with different die counts, so no state may leak between
// builds.
func TestBuildMatchesReference(t *testing.T) {
	geos := []Geometry{
		smallGeo(), // 2 dies x 4 planes
		{Channels: 1, ChipsPerChan: 2, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 2048},
		{Channels: 1, ChipsPerChan: 2, DiesPerChip: 1, PlanesPerDie: MaxPlanesPerDie, BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 2048},
		{Channels: 1, ChipsPerChan: 2, DiesPerChip: 4, PlanesPerDie: MaxPlanesPerDie, BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 2048},
		{Channels: 1, ChipsPerChan: 2, DiesPerChip: 8, PlanesPerDie: 2, BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 2048},
	}
	rng := sim.NewRand(29)
	var tx, ref Transaction
	var occ Occupancy
	truncated := 0
	for _, geo := range geos {
		for trial := 0; trial < 2000; trial++ {
			pending := randomQueue(rng, geo, rng.Intn(80))
			refPending := append([]Request(nil), pending...)
			n := len(pending)

			taken := BuildTransactionInto(geo, refPending, &ref, nil)
			var refRest []Request
			for i, r := range refPending {
				if len(taken) == 0 || taken[0] != i {
					refRest = append(refRest, r)
					continue
				}
				taken = taken[1:]
			}

			rest := tx.Build(pending, &geo, &occ)
			name := fmt.Sprintf("%d dies x %d planes, trial %d", geo.DiesPerChip, geo.PlanesPerDie, trial)
			if tx.Chip != ref.Chip || tx.Op != ref.Op || !slices.Equal(tx.Requests, ref.Requests) {
				t.Fatalf("%s: built %v, reference %v", name, tx.Requests, ref.Requests)
			}
			if !slices.Equal(rest, refRest) {
				t.Fatalf("%s: left %v, reference %v", name, rest, refRest)
			}
			for i, r := range pending[len(rest):n] {
				if r != (Request{}) {
					t.Fatalf("%s: vacated slot %d holds %v", name, len(rest)+i, r)
				}
			}
			if tx.Len() == geo.MaxFLP() && len(rest) > 0 {
				truncated++
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no case filled a transaction to MaxFLP with requests left over")
	}
}

func TestOccupancyRule(t *testing.T) {
	var o Occupancy
	o.Reset(2)
	claim := func(die, plane, block, page int) bool {
		return o.Claim(&Addr{Die: die, Plane: plane, Block: block, Page: page})
	}
	if !claim(0, 0, 5, 7) {
		t.Fatal("an untouched die refused its first request")
	}
	if claim(0, 0, 5, 7) {
		t.Fatal("a plane took two requests")
	}
	if claim(0, 1, 5, 8) || claim(0, 1, 6, 7) {
		t.Fatal("plane sharing accepted mismatched offsets")
	}
	if !claim(0, 1, 5, 7) || !claim(1, 0, 9, 3) {
		t.Fatal("refused plane sharing or die interleaving")
	}
	o.Reset(1)
	if !claim(0, 0, 1, 1) {
		t.Fatal("Reset left a die occupied")
	}
	o.Reset(1)
	if !claim(0, MaxPlanesPerDie-1, 1, 1) || claim(0, MaxPlanesPerDie-1, 1, 1) || !claim(0, 0, 1, 1) {
		t.Fatal("the top plane's bit is not its own")
	}
}

// agedWriteQueue is a committed queue shaped like the aged-write
// benchmark's: a GC migration's reads, all on the victim's plane, ahead of
// host writes spread over the chip. Only the first read can be taken.
func agedWriteQueue() []Request {
	var q []Request
	for page := 0; page < 12; page++ {
		q = append(q, req(0, 1, 2, 17, page, OpRead))
	}
	for i := 0; len(q) < 40; i++ {
		q = append(q, req(0, i%2, (i/2)%4, 40+i, i%16, OpProgram))
	}
	return q
}

// agedWriteBuild returns a build from a fresh copy of agedWriteQueue into
// one reused Transaction and Occupancy, and the number of requests it
// leaves queued.
func agedWriteBuild() func() int {
	g := smallGeo()
	tmpl := agedWriteQueue()
	pending := make([]Request, len(tmpl))
	var tx Transaction
	var occ Occupancy
	return func() int {
		copy(pending, tmpl)
		return len(tx.Build(pending, &g, &occ))
	}
}

// BenchmarkBuildTransaction times one transaction build from a 40-deep
// aged-write-shaped queue, restoring the queue before each build. The
// first build, which grows the reused storage, runs before the timer.
func BenchmarkBuildTransaction(b *testing.B) {
	build := agedWriteBuild()
	if left := build(); left != len(agedWriteQueue())-1 {
		b.Fatalf("left %d of %d", left, len(agedWriteQueue()))
	}
	b.ReportAllocs()
	for b.Loop() {
		build()
	}
}

// TestBuildAllocFree pins BenchmarkBuildTransaction's 0 allocs/op: once
// its Transaction and Occupancy have grown, Build allocates nothing.
func TestBuildAllocFree(t *testing.T) {
	build := agedWriteBuild()
	build()
	if allocs := testing.AllocsPerRun(20, func() { build() }); allocs != 0 {
		t.Fatalf("Build made %v allocations per call, want 0", allocs)
	}
}
