package flash

// This file keeps the pairwise coalescing check that Transaction.Build and
// Occupancy replaced: CanJoin compares a candidate with every member, Add
// appends after it, and BuildTransactionInto builds with them and reports
// the taken indices. They are the reference the builder's differential
// test holds it to, and the transaction and chip tests build their fixtures
// with Add.

// CoalesceError explains why a request cannot join a transaction.
type CoalesceError struct{ Reason string }

func (e *CoalesceError) Error() string { return "flash: cannot coalesce: " + e.Reason }

// Coalescing rejections are preallocated, as they were when CanJoin was the
// builder's hot path.
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
