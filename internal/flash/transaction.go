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
// plane sharing (CanJoin guarantees they differ in plane).
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

// CoalesceError explains why a request cannot join a transaction.
type CoalesceError struct{ Reason string }

func (e *CoalesceError) Error() string { return "flash: cannot coalesce: " + e.Reason }

// Coalescing rejections are preallocated: CanJoin sits on the transaction
// builder's hot path, where constructing an error per rejected candidate
// dominated the allocation profile.
var (
	errDifferentChip = &CoalesceError{"different chip"}
	errDifferentOp   = &CoalesceError{"different op"}
	errAtMaxFLP      = &CoalesceError{"transaction already at max FLP"}
	errPlaneOccupied = &CoalesceError{"die/plane already occupied"}
	errPageMismatch  = &CoalesceError{"plane sharing requires same page offset"}
	errBlockMismatch = &CoalesceError{"plane sharing requires same block offset"}
)

// CanJoin reports whether request r may legally be added to t under the
// flash microarchitecture constraints of §2.2:
//
//   - same chip and same operation kind;
//   - at most one request per (die, plane) — a plane holds one page in its
//     data register;
//   - plane sharing (two requests on the same die) requires the same page
//     offset within the block and, for the shared-wordline access, the
//     same block index across planes (the paper: "addresses ... should
//     indicate the same page and die offset ... but different plane
//     addresses");
//   - the transaction degree cannot exceed dies × planes.
//
// Erases coalesce under the same die/plane rules (multi-plane erase needs
// matching block offsets; the page offset rule is vacuous).
func (t *Transaction) CanJoin(g Geometry, r Request) error {
	if len(t.Requests) == 0 {
		return nil
	}
	if r.Addr.Chip != t.Chip {
		return errDifferentChip
	}
	if r.Op != t.Op {
		return errDifferentOp
	}
	if len(t.Requests) >= g.MaxFLP() {
		return errAtMaxFLP
	}
	for _, m := range t.Requests {
		if m.Addr.Die == r.Addr.Die {
			if m.Addr.Plane == r.Addr.Plane {
				return errPlaneOccupied
			}
			// Plane sharing on this die: shared wordline constraints.
			if m.Addr.Page != r.Addr.Page {
				return errPageMismatch
			}
			if m.Addr.Block != r.Addr.Block {
				return errBlockMismatch
			}
		}
	}
	return nil
}

// Add appends r after validating it with CanJoin. The first request fixes
// the chip and operation kind.
func (t *Transaction) Add(g Geometry, r Request) error {
	if len(t.Requests) == 0 {
		t.Chip = r.Addr.Chip
		t.Op = r.Op
		t.Requests = append(t.Requests[:0], r)
		return nil
	}
	if err := t.CanJoin(g, r); err != nil {
		return err
	}
	t.Requests = append(t.Requests, r)
	return nil
}

// String renders a compact diagnostic description.
func (t *Transaction) String() string {
	return fmt.Sprintf("txn{chip=%d op=%v n=%d class=%v}", t.Chip, t.Op, t.Len(), t.Class())
}

// BuildTransactionInto greedily coalesces as many of the pending requests
// as legally possible into t, starting from pending[0] (the
// highest-priority request as ordered by the scheduler). t is reset and
// filled in place; the indices of pending that were consumed are returned
// in taken, reusing its capacity, so controllers build every transaction
// without allocating.
//
// The greedy order respects the committed order: the flash controller scans
// the per-chip queue once and takes every request that still fits. This is
// exactly the opportunity window FARO widens by over-committing.
func BuildTransactionInto(g Geometry, pending []Request, t *Transaction, taken []int) []int {
	t.Reset()
	if len(pending) == 0 {
		return taken[:0]
	}
	taken = taken[:0]
	for i, r := range pending {
		if err := t.Add(g, r); err == nil {
			taken = append(taken, i)
			if t.Len() >= g.MaxFLP() {
				break
			}
		} else if i == 0 {
			// First request must always be accepted; Add only fails for
			// non-empty transactions, so this cannot happen.
			panic("flash: BuildTransactionInto failed to seed transaction")
		}
	}
	return taken
}
