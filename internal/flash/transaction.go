package flash

import (
	"fmt"
)

// FLPClass labels the degree of flash-level parallelism a transaction
// achieves, following §5.6 of the paper.
type FLPClass int

const (
	// NonPAL: a single memory request; only system-level parallelism
	// (channel striping/pipelining) applies.
	NonPAL FLPClass = iota
	// PAL1: plane sharing only — multiple planes of one die activated by a
	// shared wordline access.
	PAL1
	// PAL2: die interleaving only — multiple dies, one plane each.
	PAL2
	// PAL3: die interleaving combined with plane sharing; the highest FLP.
	PAL3
)

// String returns the paper's label for the class.
func (c FLPClass) String() string {
	switch c {
	case NonPAL:
		return "NON-PAL"
	case PAL1:
		return "PAL1"
	case PAL2:
		return "PAL2"
	case PAL3:
		return "PAL3"
	default:
		return fmt.Sprintf("PAL(%d)", int(c))
	}
}

// Request is one page-sized flash memory request as seen by a flash
// controller: an operation at a physical address. Token carries an opaque
// caller cookie (the ssd layer stores its memory-request pointer there) so
// completions can be routed without the flash package importing upper
// layers.
type Request struct {
	Op    Op
	Addr  Addr
	Token interface{}

	// Failed is set by the chip's fault model when the operation did not
	// succeed: an uncorrectable read (retry ladder exhausted), a program
	// failure, or an erase failure. The controller routes failed
	// completions to the recovery paths (rewrite, block retirement).
	Failed bool
}

// Transaction is a set of same-kind requests to a single chip that the
// flash controller executes as one unit: one command/address/data sequence
// per member on the bus, then a single overlapped cell phase across the
// involved dies (§2.2 "a flash transaction is a series of activities...").
type Transaction struct {
	Chip     ChipID
	Op       Op
	Requests []Request
}

// Len returns the number of member requests.
func (t *Transaction) Len() int { return len(t.Requests) }

// Reset empties the transaction, retaining member capacity so a controller
// can reuse one Transaction value per chip without reallocating.
func (t *Transaction) Reset() {
	t.Chip = 0
	t.Op = 0
	t.Requests = t.Requests[:0]
}

// Class computes the FLP class from the member addresses. The pairwise
// scan is allocation-free and bounded by MaxFLP members: two members on
// different dies mean die interleaving, two members sharing a die mean
// plane sharing (Occupancy guarantees they differ in plane).
func (t *Transaction) Class() FLPClass {
	multiDie, multiPlane := false, false
	for i := 1; i < len(t.Requests); i++ {
		di := t.Requests[i].Addr.Die
		for j := 0; j < i; j++ {
			if t.Requests[j].Addr.Die != di {
				multiDie = true
			} else {
				multiPlane = true
			}
		}
	}
	switch {
	case multiDie && multiPlane:
		return PAL3
	case multiDie:
		return PAL2
	case multiPlane:
		return PAL1
	default:
		return NonPAL
	}
}

// Degree returns the number of member requests, i.e. how many page accesses
// the single cell phase serves.
func (t *Transaction) Degree() int { return len(t.Requests) }

// String renders a compact diagnostic description.
func (t *Transaction) String() string {
	return fmt.Sprintf("txn{chip=%d op=%v n=%d class=%v}", t.Chip, t.Op, t.Len(), t.Class())
}

// Occupancy is the §2.2 coalescing rule held as per-die state while a
// transaction, or a FARO group that predicts one, is being formed. The
// rule, for requests of one operation on one chip:
//
//   - at most one request per (die, plane): a plane holds one page in its
//     data register;
//   - plane sharing (two requests on one die) needs the same page offset
//     and, for the shared-wordline access, the same block index (the
//     paper: "addresses ... should indicate the same page and die offset
//     ... but different plane addresses"). Multi-plane erases need
//     matching blocks; the simulator issues every erase at page 0.
//
// Each die records the planes its members hold and the (block, page) its
// first member fixed. A request may join when its die is untouched, or
// when its plane is free and its block and page match the die's. Every
// member on a die shares the first member's offsets, so this O(1) check
// admits exactly the requests a comparison against each member would.
type Occupancy struct {
	dies []dieSlot
}

// dieSlot is one die's occupancy; planes == 0 means the die is untouched.
// The plane mask is 32 bits wide because Geometry.Validate bounds
// PlanesPerDie at MaxPlanesPerDie. Block and page fit in 32 bits too:
// Validate bounds PagesPerBlock, and a plane of 2^31 blocks cannot be
// built, since the FTL keeps state per block. BenchmarkSelect/SPK3 ran
// slower with 64-bit fields.
type dieSlot struct {
	planes uint32
	block  int32
	page   int32
}

// Reset empties the state for a chip with the given number of dies,
// allocating only when it has held fewer dies before. Only the plane masks
// need clearing: a die's block and page are set when it is first claimed.
func (o *Occupancy) Reset(dies int) {
	if len(o.dies) < dies {
		o.dies = make([]dieSlot, dies)
		return
	}
	d := o.dies[:dies]
	for i := range d {
		d[i].planes = 0
	}
}

// Claim reports whether a request at a may join the requests claimed since
// the last Reset, and records it if so. It does not compare operations or
// chips; the caller does.
//
// Claim is written for the loops that call it once per queued request: the
// value receiver lets a caller copy the state into a local once per build,
// and the branch-free test leaves the caller a single branch on its result.
// Masking the shift is exact since a plane index is below MaxPlanesPerDie.
func (o Occupancy) Claim(a *Addr) bool {
	d := &o.dies[a.Die]
	block, page := int32(a.Block), int32(a.Page)
	if d.planes == 0 {
		d.block, d.page = block, page
	}
	bit := uint32(1) << (uint(a.Plane) & (MaxPlanesPerDie - 1))
	miss := d.planes&bit | uint32(d.block^block) | uint32(d.page^page)
	if miss == 0 {
		d.planes |= bit
	}
	return miss == 0
}

// Build greedily coalesces the committed queue pending into t and returns
// what is left of the queue. pending[0], the highest-priority request as
// the scheduler ordered it, seeds t and fixes its chip and operation; each
// later request joins if it has the same chip and operation and occ admits
// its address, until t holds g.MaxFLP() members. This is the opportunity
// window FARO widens by over-committing (§4.2).
//
// The pass is single: the requests not taken are moved, in order, to the
// front of pending's storage as it goes, and the slots they vacate are
// zeroed so they pin no tokens. t is reset and filled in place and occ is
// scratch, so a caller that reuses both builds every transaction without
// allocating.
func (t *Transaction) Build(pending []Request, g *Geometry, occ *Occupancy) []Request {
	t.Reset()
	if len(pending) == 0 {
		return pending
	}
	occ.Reset(g.DiesPerChip)
	o := *occ
	seed := &pending[0]
	op, chip := seed.Op, seed.Addr.Chip
	t.Chip, t.Op = chip, op
	o.Claim(&seed.Addr)
	t.Requests = append(t.Requests, *seed)
	maxFLP := g.MaxFLP()
	kept, i := 0, 1
	for ; i < len(pending) && len(t.Requests) < maxFLP; i++ {
		r := &pending[i]
		if r.Op == op && r.Addr.Chip == chip && o.Claim(&r.Addr) {
			t.Requests = append(t.Requests, *r)
			continue
		}
		pending[kept] = *r
		kept++
	}
	kept += copy(pending[kept:], pending[i:])
	for j := kept; j < len(pending); j++ {
		pending[j] = Request{}
	}
	return pending[:kept]
}
