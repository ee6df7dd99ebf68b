package sched

import (
	"fmt"
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// refVASSelect is VAS's Select as a plain scan: it walks every queued
// I/O's members to find the head and keeps nothing between calls.
func refVASSelect(slots int, b *Budget, q *nvmhc.Queue, fab Fabric) []*req.Mem {
	for io := q.Head(); io != nil; io = q.Next(io) {
		pending := false
		for _, m := range io.Mem {
			if m.State == req.StateQueued {
				pending = true
				break
			}
		}
		if !pending {
			continue
		}
		b.Reset(fab, slots)
		var out []*req.Mem
		for _, m := range io.Mem {
			if m.State == req.StateQueued && b.Take(m) {
				out = append(out, m)
			}
		}
		return out
	}
	return nil
}

// refPASSelect is PAS's Select as a plain scan: on every call it rebuilds
// each queued I/O's pending list and runs the full Fits on every non-head
// I/O, with no queued count and no memo.
func refPASSelect(slots int, b *Budget, q *nvmhc.Queue, fab Fabric) []*req.Mem {
	b.Reset(fab, slots)
	var out []*req.Mem
	head := true
	i := 0
	for io := q.Head(); io != nil; io = q.Next(io) {
		if io.FUA && i > 0 {
			break
		}
		i++
		var pending []*req.Mem
		for _, m := range io.Mem {
			if m.State == req.StateQueued {
				pending = append(pending, m)
			}
		}
		if len(pending) == 0 {
			continue
		}
		if head {
			for _, m := range pending {
				if b.Take(m) {
					out = append(out, m)
				}
			}
			head = false
		} else if _, _, ok := b.Fits(pending); ok {
			for _, m := range pending {
				b.Take(m)
				out = append(out, m)
			}
		}
		if io.FUA {
			break
		}
	}
	return out
}

// selectWorld replays the device's pump against a scheduler and its
// reference scan on one shared queue: every Select is made on both and
// must return the same requests in the same order, and the batch is then
// composed, as Device.pump does, before Select is called again.
type selectWorld struct {
	t   *testing.T
	rng *sim.Rand
	fab *fakeFabric
	q   *nvmhc.Queue

	fast Scheduler
	ref  func() []*req.Mem

	ext      []int      // outside pressure per chip, included in fab.out
	inflight []*req.Mem // composed, not yet done
	nextID   int64
	run      int

	// Coverage: each case the test claims to exercise must occur.
	calls, memoCalls, partialHeads, fuaServed, fuaBarriers, withdrawn, resets int
}

func newSelectWorld(t *testing.T, seed uint64, fast Scheduler, slots int, ref func(int, *Budget, *nvmhc.Queue, Fabric) []*req.Mem) *selectWorld {
	w := &selectWorld{
		t:    t,
		rng:  sim.NewRand(seed),
		fab:  newFakeFabric(),
		q:    nvmhc.NewQueue(16),
		fast: fast,
	}
	w.ext = make([]int, w.fab.geo.NumChips())
	var b Budget
	w.ref = func() []*req.Mem { return ref(slots, &b, w.q, w.fab) }
	return w
}

// admit enqueues a random I/O: mostly 1-3 pages on random chips, some
// oversized (5-10 pages, mostly on one chip, more than PAS's 4 slots),
// some FUA.
func (w *selectWorld) admit() {
	n := w.fab.geo.NumChips()
	pages := 1 + w.rng.Intn(3)
	hot := -1
	if w.rng.Bool(0.1) {
		pages = 5 + w.rng.Intn(6)
		hot = w.rng.Intn(n)
	}
	kind := req.Read
	if w.rng.Bool(0.3) {
		kind = req.Write
	}
	io := req.NewIO(w.nextID, kind, req.LPN(w.nextID*16), pages, 0)
	w.nextID++
	for i, m := range io.Mem {
		c := w.rng.Intn(n)
		if hot >= 0 && !w.rng.Bool(0.2) {
			c = hot
		}
		m.Addr = flash.Addr{Chip: flash.ChipID(c), Die: i % 2, Plane: (i / 2) % 2, Block: i, Page: i}
	}
	io.FUA = w.rng.Bool(0.04)
	if !w.q.Enqueue(0, io) {
		w.t.Fatal("admit on a full queue")
	}
}

// complete serves one random in-flight request and releases its I/O's tag
// when that was the I/O's last request.
func (w *selectWorld) complete() {
	k := w.rng.Intn(len(w.inflight))
	m := w.inflight[k]
	w.inflight[k] = w.inflight[len(w.inflight)-1]
	w.inflight = w.inflight[:len(w.inflight)-1]
	w.fab.out[m.Addr.Chip]--
	m.State = req.StateDone
	if m.IO.MarkDone(m.Index) {
		w.q.Release(0, m.IO)
	}
}

// pressure moves one chip's outside pressure (work the scheduler did not
// commit) up or down by one, within [0, 3]; draining only lowers it.
func (w *selectWorld) pressure(draining bool) {
	c := w.rng.Intn(len(w.ext))
	d := 1
	if draining || w.rng.Bool(0.5) {
		d = -1
	}
	if v := w.ext[c] + d; v >= 0 && v <= 3 {
		w.ext[c] = v
		w.fab.out[flash.ChipID(c)] += d
	}
}

// withdraw composes one random queued request without the scheduler, as
// another selector sharing the queue would, so an I/O's queued count can
// drop while it is not the head.
func (w *selectWorld) withdraw() {
	var cands []*req.Mem
	for io := w.q.Head(); io != nil; io = w.q.Next(io) {
		for _, m := range io.Mem {
			if m.State == req.StateQueued {
				cands = append(cands, m)
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	w.commit(cands[w.rng.Intn(len(cands))])
	w.withdrawn++
}

func (w *selectWorld) commit(m *req.Mem) {
	m.Compose(0)
	w.fab.out[m.Addr.Chip]++
	w.inflight = append(w.inflight, m)
}

// pump calls Select on both schedulers until neither selects anything,
// composing each batch in between.
func (w *selectWorld) pump() {
	for {
		var head *req.IO
		i := 0
		for io := w.q.Head(); io != nil; io = w.q.Next(io) {
			if head == nil && io.Queued() > 0 {
				head = io
			}
			if io.FUA && i > 0 && io.Queued() > 0 {
				w.fuaBarriers++
			}
			i++
		}
		want := w.ref()
		var skips int
		if p, ok := w.fast.(*PAS); ok {
			skips = p.skips
		}
		got := w.fast.Select(0, w.q, w.fab)
		w.calls++
		if p, ok := w.fast.(*PAS); ok && p.skips > skips {
			w.memoCalls++
		}
		if !sameMems(got, want) {
			w.t.Fatalf("%s run %d call %d: selected %v, the reference scan selects %v",
				w.fast.Name(), w.run, w.calls, got, want)
		}
		if len(got) == 0 {
			return
		}
		for _, m := range got {
			if m.IO.FUA {
				w.fuaServed++
				break
			}
		}
		for _, m := range got {
			w.commit(m)
		}
		if head != nil && head.Queued() > 0 && got[0].IO == head {
			w.partialHeads++
		}
	}
}

func sameMems(a, b []*req.Mem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// play runs the world for runs runs. Every run starts on a reset queue
// (Seq numbers restart at zero) and a reset scheduler. Half the runs
// admit at most one queue's worth of I/Os, so their Seq numbers land in
// the same slots as the previous run's; a run either drains or is cut
// off with I/Os still queued.
func (w *selectWorld) play(runs int) {
	for w.run = 0; w.run < runs; w.run++ {
		w.q.Reset()
		if r, ok := w.fast.(StateResetter); ok {
			r.ResetState()
		}
		w.resets++
		clear(w.fab.out)
		clear(w.ext)
		w.inflight = w.inflight[:0]
		limit := 16
		if w.run%2 == 1 {
			limit = 64 + w.rng.Intn(64)
		}
		cut := w.rng.Bool(0.2)
		for admitted, step := 0, 0; admitted < limit || !w.q.Empty(); step++ {
			if step > 100000 {
				w.t.Fatalf("run %d did not drain", w.run)
			}
			if cut && admitted >= limit/2 {
				break
			}
			draining := admitted >= limit
			switch r := w.rng.Intn(100); {
			case r < 40:
				if !draining && !w.q.Full() {
					w.admit()
					admitted++
				}
			case r < 75:
				if len(w.inflight) > 0 {
					w.complete()
				}
			case r < 95:
				w.pressure(draining)
			default:
				w.withdraw()
			}
			w.pump()
		}
	}
}

// TestPASAndVASMatchScan checks PAS's and VAS's Select, with their queued
// count and PAS's Fits-failure memo, against refPASSelect and
// refVASSelect over seeded random queues: FUA heads and FUA entries
// mid-queue, oversized head I/Os committed in parts, outside pressure
// rising and falling between calls, requests leaving the queue behind the
// scheduler's back, and one scheduler reused across ResetState with Seq
// numbers recycled. PAS must also take the memo's skip in at least a
// third of its calls, or the test shows nothing about the memo.
func TestPASAndVASMatchScan(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("PAS/seed=%d", seed), func(t *testing.T) {
			p := NewPAS()
			w := newSelectWorld(t, seed, p, p.Slots, refPASSelect)
			w.play(300)
			t.Logf("%d calls, %d with a memo skip, %d I/Os skipped, %d partial heads, %d FUA served, %d FUA barriers, %d withdrawn",
				w.calls, w.memoCalls, p.skips, w.partialHeads, w.fuaServed, w.fuaBarriers, w.withdrawn)
			w.requireCoverage()
			if w.memoCalls*3 < w.calls {
				t.Fatalf("the memo skipped I/Os in %d of %d calls, want at least a third", w.memoCalls, w.calls)
			}
		})
		t.Run(fmt.Sprintf("VAS/seed=%d", seed), func(t *testing.T) {
			v := NewVAS()
			w := newSelectWorld(t, seed, v, v.Slots, refVASSelect)
			w.play(300)
			w.requireCoverage()
		})
	}
}

func (w *selectWorld) requireCoverage() {
	w.t.Helper()
	for _, c := range []struct {
		name string
		n    int
	}{
		{"partial head commits", w.partialHeads},
		{"FUA I/Os served", w.fuaServed},
		{"FUA barriers mid-queue", w.fuaBarriers},
		{"withdrawn requests", w.withdrawn},
		{"scheduler resets", w.resets},
	} {
		if c.n == 0 {
			w.t.Errorf("no %s in %d calls", c.name, w.calls)
		}
	}
}
