package flash

import (
	"testing"
	"testing/quick"
)

func smallGeo() Geometry {
	return Geometry{
		Channels: 2, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 4,
		BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 2048,
	}
}

func req(chip ChipID, die, plane, block, page int, op Op) Request {
	return Request{Op: op, Addr: Addr{Chip: chip, Die: die, Plane: plane, Block: block, Page: page}}
}

func TestTransactionClassSingle(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	if err := tx.Add(g, req(0, 0, 0, 1, 2, OpRead)); err != nil {
		t.Fatal(err)
	}
	if tx.Class() != NonPAL {
		t.Fatalf("single request class = %v, want NON-PAL", tx.Class())
	}
}

func TestTransactionClassPlaneShare(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 0, 5, 7, OpRead)))
	must(t, tx.Add(g, req(0, 0, 1, 5, 7, OpRead)))
	if tx.Class() != PAL1 {
		t.Fatalf("plane-share class = %v, want PAL1", tx.Class())
	}
}

func TestTransactionClassDieInterleave(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 0, 5, 7, OpRead)))
	must(t, tx.Add(g, req(0, 1, 0, 9, 3, OpRead)))
	if tx.Class() != PAL2 {
		t.Fatalf("die-interleave class = %v, want PAL2", tx.Class())
	}
}

func TestTransactionClassCombined(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 0, 5, 7, OpRead)))
	must(t, tx.Add(g, req(0, 0, 1, 5, 7, OpRead)))
	must(t, tx.Add(g, req(0, 1, 2, 9, 3, OpRead)))
	if tx.Class() != PAL3 {
		t.Fatalf("combined class = %v, want PAL3", tx.Class())
	}
}

func TestCoalesceRejectsDifferentChip(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 0, 1, 1, OpRead)))
	if err := tx.Add(g, req(1, 0, 1, 1, 1, OpRead)); err == nil {
		t.Fatal("accepted request for a different chip")
	}
}

func TestCoalesceRejectsDifferentOp(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 0, 1, 1, OpRead)))
	if err := tx.Add(g, req(0, 1, 0, 1, 1, OpProgram)); err == nil {
		t.Fatal("accepted mixed read/program transaction")
	}
}

func TestCoalesceRejectsSameDiePlane(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 2, 1, 1, OpRead)))
	if err := tx.Add(g, req(0, 0, 2, 9, 9, OpRead)); err == nil {
		t.Fatal("accepted two requests on the same die/plane")
	}
}

func TestCoalescePlaneShareNeedsSamePageOffset(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 0, 5, 7, OpRead)))
	if err := tx.Add(g, req(0, 0, 1, 5, 8, OpRead)); err == nil {
		t.Fatal("plane sharing accepted mismatched page offsets")
	}
	if err := tx.Add(g, req(0, 0, 1, 6, 7, OpRead)); err == nil {
		t.Fatal("plane sharing accepted mismatched block offsets")
	}
	// Different die has no page-offset constraint.
	if err := tx.Add(g, req(0, 1, 1, 6, 9, OpRead)); err != nil {
		t.Fatalf("die interleaving wrongly constrained: %v", err)
	}
}

func TestCoalesceMaxFLP(t *testing.T) {
	g := smallGeo() // max FLP = 8
	var tx Transaction
	n := 0
	for die := 0; die < g.DiesPerChip; die++ {
		for plane := 0; plane < g.PlanesPerDie; plane++ {
			if err := tx.Add(g, req(0, die, plane, 5, 7, OpProgram)); err != nil {
				t.Fatalf("add %d: %v", n, err)
			}
			n++
		}
	}
	if tx.Len() != g.MaxFLP() {
		t.Fatalf("built %d members, want %d", tx.Len(), g.MaxFLP())
	}
	if tx.Class() != PAL3 {
		t.Fatalf("full transaction class = %v, want PAL3", tx.Class())
	}
	if err := tx.Add(g, req(0, 0, 0, 5, 7, OpProgram)); err == nil {
		t.Fatal("accepted request beyond max FLP")
	}
}

func TestEraseCoalesce(t *testing.T) {
	g := smallGeo()
	var tx Transaction
	must(t, tx.Add(g, req(0, 0, 0, 5, 0, OpErase)))
	must(t, tx.Add(g, req(0, 0, 1, 5, 0, OpErase)))
	must(t, tx.Add(g, req(0, 1, 0, 7, 0, OpErase)))
	if tx.Class() != PAL3 {
		t.Fatalf("erase class = %v, want PAL3", tx.Class())
	}
}

// build runs BuildTransactionInto on fresh storage.
func build(g Geometry, pending []Request) (*Transaction, []int) {
	tx := &Transaction{}
	return tx, BuildTransactionInto(g, pending, tx, nil)
}

func TestBuildTransactionGreedy(t *testing.T) {
	g := smallGeo()
	pending := []Request{
		req(0, 0, 0, 5, 7, OpRead),
		req(0, 0, 0, 6, 2, OpRead), // conflicts with [0] (same die/plane)
		req(0, 1, 0, 9, 1, OpRead), // joins via die interleave
		req(0, 0, 1, 5, 7, OpRead), // joins via plane share
	}
	tx, taken := build(g, pending)
	if tx.Len() != 3 {
		t.Fatalf("coalesced %d members, want 3 (%v)", tx.Len(), tx)
	}
	want := []int{0, 2, 3}
	for i, w := range want {
		if taken[i] != w {
			t.Fatalf("taken = %v, want %v", taken, want)
		}
	}
	if tx.Class() != PAL3 {
		t.Fatalf("class = %v, want PAL3", tx.Class())
	}
}

func TestBuildTransactionEmpty(t *testing.T) {
	g := smallGeo()
	tx, taken := build(g, nil)
	if tx.Len() != 0 || len(taken) != 0 {
		t.Fatalf("empty input built %v, took %v", tx, taken)
	}
}

func TestBuildTransactionSingleAlwaysSucceeds(t *testing.T) {
	g := smallGeo()
	p := []Request{req(1, 1, 3, 60, 15, OpProgram)}
	tx, taken := build(g, p)
	if tx.Len() != 1 || len(taken) != 1 || taken[0] != 0 {
		t.Fatalf("single build wrong: %v %v", tx, taken)
	}
}

// Property: BuildTransactionInto output is always legal — no duplicated
// (die,plane), one op kind, same-die members share page+block offsets, and
// degree <= MaxFLP.
func TestBuildTransactionLegalProperty(t *testing.T) {
	g := smallGeo()
	prop := func(raw []uint32) bool {
		var pending []Request
		for _, v := range raw {
			pending = append(pending, Request{
				Op: Op(v % 2), // read or program
				Addr: Addr{
					Chip:  0,
					Die:   int(v>>2) % g.DiesPerChip,
					Plane: int(v>>4) % g.PlanesPerDie,
					Block: int(v>>8) % g.BlocksPerPlane,
					Page:  int(v>>16) % g.PagesPerBlock,
				},
			})
		}
		if len(pending) == 0 {
			return true
		}
		tx, taken := build(g, pending)
		if tx.Len() != len(taken) || tx.Len() == 0 || tx.Len() > g.MaxFLP() {
			return false
		}
		seen := map[[2]int]Addr{}
		for _, r := range tx.Requests {
			if r.Op != tx.Op {
				return false
			}
			key := [2]int{r.Addr.Die, r.Addr.Plane}
			if _, dup := seen[key]; dup {
				return false
			}
			for k, prev := range seen {
				if k[0] == r.Addr.Die && (prev.Page != r.Addr.Page || prev.Block != r.Addr.Block) {
					return false
				}
			}
			seen[key] = r.Addr
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestFLPClassString(t *testing.T) {
	cases := map[FLPClass]string{NonPAL: "NON-PAL", PAL1: "PAL1", PAL2: "PAL2", PAL3: "PAL3"}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
