package ftl

import (
	"testing"

	"sprinkler/internal/sim"
)

// pageTable is the operation set the mapping table and its slice layer
// share, so the parity test can drive both.
type pageTable interface {
	get(k int64) (int64, bool)
	set(k int64, v int64) bool
	len() int
	forEach(fn func(k, v int64) bool)
	reset()
}

// TestPageTableParity drives the table through randomized op sequences
// mirrored against a Go map; every observable (get/set results, live
// count, iteration contents) must agree. Each round ends in a reset and
// the next round's key window overlaps the last one's, so recycled chunks
// (whose stale contents must never leak) are exercised alongside fresh
// ones.
func TestPageTableParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		tab  pageTable
	}{
		{"paged", &pagedTable{}},
		// Ceiling inside the key range: every op splits between the main
		// table and the overflow map.
		{"bounded", &boundedTable{main: &pagedTable{}, ceiling: 1 << 15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRand(17)
			const span = 1 << 16
			for round := 0; round < 4; round++ {
				ref := map[int64]int64{}
				base := int64(round) * span / 2
				for op := 0; op < 60_000; op++ {
					k := base + rng.Int63n(span)
					switch rng.Intn(2) {
					case 0:
						v := rng.Int63n(1 << 30)
						had := tc.tab.set(k, v)
						_, refHad := ref[k]
						if had != refHad {
							t.Fatalf("round %d op %d: set(%d) had=%v ref=%v", round, op, k, had, refHad)
						}
						ref[k] = v
					default:
						v, ok := tc.tab.get(k)
						rv, rok := ref[k]
						if ok != rok || (ok && v != rv) {
							t.Fatalf("round %d op %d: get(%d) = %d,%v ref %d,%v", round, op, k, v, ok, rv, rok)
						}
					}
					if tc.tab.len() != len(ref) {
						t.Fatalf("round %d op %d: len %d, ref %d", round, op, tc.tab.len(), len(ref))
					}
				}
				seen := map[int64]int64{}
				tc.tab.forEach(func(k, v int64) bool {
					seen[k] = v
					return true
				})
				if len(seen) != len(ref) {
					t.Fatalf("round %d: forEach visited %d, ref %d", round, len(seen), len(ref))
				}
				for k, v := range ref {
					if seen[k] != v {
						t.Fatalf("round %d: forEach missed %d -> %d", round, k, v)
					}
				}
				tc.tab.reset()
				if n := tc.tab.len(); n != 0 {
					t.Fatalf("round %d: len %d after reset", round, n)
				}
				tc.tab.forEach(func(k, v int64) bool {
					t.Fatalf("round %d: forEach visited %d -> %d after reset", round, k, v)
					return false
				})
				for k := range ref {
					if _, ok := tc.tab.get(k); ok {
						t.Fatalf("round %d: key %d survived reset", round, k)
					}
				}
			}
		})
	}
}

// TestPageTableFootprintBoundedByLargestRun: runs touching disjoint key
// sets must reuse one another's chunks, so the resident footprint tracks
// the largest single run (within the batch slack of less than 2x), never
// the union of every run's keys — and stops growing once the largest run
// has been seen.
func TestPageTableFootprintBoundedByLargestRun(t *testing.T) {
	tab := newTable(1 << 30)
	largest, union := 0, 0
	var settled int64
	for run := 0; run < 16; run++ {
		tab.reset()
		chunks := 4 + 8*(run%5)
		largest = max(largest, chunks)
		union += chunks
		base := int64(run) * 64 * tableChunkSize
		for c := 0; c < chunks; c++ {
			for i := int64(0); i < tableChunkSize; i += 512 {
				tab.set(base+int64(c)*tableChunkSize+i, i)
			}
		}
		fp := tab.footprint()
		if fp < int64(chunks)*tableChunkSize || fp >= 2*int64(largest)*tableChunkSize {
			t.Fatalf("run %d: footprint %d chunks, want in [%d, %d) (largest run %d, union %d)",
				run, fp/tableChunkSize, chunks, 2*largest, largest, union)
		}
		if run == 4 {
			settled = fp
		} else if run > 4 && fp != settled {
			t.Fatalf("run %d: footprint moved %d -> %d chunks after the largest run", run, settled/tableChunkSize, fp/tableChunkSize)
		}
	}
}

// TestPageTableSparseFootprint: a huge space touched sparsely must not
// allocate proportional memory — 100 keys cost at most the batch slack
// over 100 chunks, not the 2^18 chunks the space spans.
func TestPageTableSparseFootprint(t *testing.T) {
	tab := newTable(1 << 30)
	// Touch 100 keys scattered over the full 2^30 space.
	for i := int64(0); i < 100; i++ {
		tab.set(i*(1<<23), i)
	}
	if fp := tab.footprint(); fp > 2*100*tableChunkSize {
		t.Fatalf("sparse footprint %d entries for 100 keys", fp)
	}
}

// TestPageTableGrowsPastHint: the sizing hint is not a bound.
func TestPageTableGrowsPastHint(t *testing.T) {
	tab := newTable(128)
	tab.set(1_000_000, 7)
	if v, ok := tab.get(1_000_000); !ok || v != 7 {
		t.Fatal("table lost a key beyond its hint")
	}
	if _, ok := tab.get(2_000_000); ok {
		t.Fatal("get of never-set key past capacity reported a mapping")
	}
}

// TestPageTableHugeKeyCostsOneEntry: one pathological write at an
// enormous LPN must land in the overflow map, not allocate an array
// proportional to the key (the regression a key-indexed table invites
// versus the old Go maps).
func TestPageTableHugeKeyCostsOneEntry(t *testing.T) {
	for _, span := range []int64{1 << 16, 1 << 30} {
		tab := newTable(span)
		tab.set(1<<40, 7)
		if v, ok := tab.get(1 << 40); !ok || v != 7 {
			t.Fatal("huge key lost")
		}
		if fp := tab.footprint(); fp > minTableCeiling {
			t.Fatalf("span %d: huge key grew footprint to %d entries", span, fp)
		}
		if tab.len() != 1 {
			t.Fatalf("len = %d, want 1", tab.len())
		}
		seen := 0
		tab.set(1<<41, 9)
		tab.set(3, 4)
		tab.forEach(func(k, v int64) bool { seen++; return true })
		if seen != 3 {
			t.Fatalf("forEach visited %d, want 3", seen)
		}
	}
}
