package ssd

import (
	"sprinkler/internal/flash"
	"sprinkler/internal/ftl"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// Garbage collection orchestration (§4.3, §5.9).
//
// When a write drains a plane's free-block pool to the threshold, the
// device plans a GC job on the FTL (greedy victim) and executes it as
// internal flash traffic on the victim's chip: read every live page,
// program it at its migration destination, erase the victim, then commit
// the mapping changes. The device turns the applied migrations into the
// readdressing callback for schedulers that subscribe to it; other
// schedulers are left with stale physical addresses and pay the
// re-translation penalty at commit time.
//
// Each chip owns one runner, reused for every job on it, timed or not:
// the runner holds the job's storage and is itself the token of the job's
// flash requests.

// gcRun is a chip's garbage collector, with at most one job in flight.
type gcRun struct {
	dev       *Device
	job       ftl.GCJob
	active    bool // a timed job is in flight
	planeIdx  int
	remaining int
	phase     flash.Op // current phase: read -> program -> erase

	// eraseFailed records a chip-level erase failure on the victim; the
	// commit then retires the block to the spare pool instead of freeing
	// it. Failed GC reads/programs are absorbed (the migration's mapping
	// still commits): the model tracks timing and wear, not payload
	// integrity, and the chip-level counters already record them.
	eraseFailed bool
}

// plan plans a job on plane pi into its chip's runner and returns the
// runner, or nil when the plane has no collectable block or the chip has a
// timed job in flight, whose victim and destinations a second plan would
// invalidate.
func (d *Device) plan(pi int) *gcRun {
	r := &d.gc[d.planeChip(pi)]
	if r.active {
		return nil
	}
	if ok, err := d.fl.PlanGC(pi, &r.job); err != nil || !ok {
		return nil
	}
	return r
}

// start launches a timed job on plane pi when the plane is under pressure
// and its chip's runner is free.
func (d *Device) start(now sim.Time, pi int) {
	if !d.fl.PlaneUnderPressure(pi) {
		return
	}
	if r := d.plan(pi); r != nil {
		r.active, r.planeIdx, r.eraseFailed = true, pi, false
		d.gcActiveCount++ // preprocess waits on in-flight jobs
		r.startReads(now)
	}
}

// collect runs one untimed job on plane pi: plan, then commit at once. It
// reports whether a block was reclaimed.
func (d *Device) collect(pi int) bool {
	r := d.plan(pi)
	if r != nil {
		d.applyMigrations(d.fl.CommitGC(&r.job, false))
	}
	return r != nil
}

func (d *Device) planeIndex(a flash.Addr) int {
	return (int(a.Chip)*d.cfg.Geo.DiesPerChip+a.Die)*d.cfg.Geo.PlanesPerDie + a.Plane
}

// planeChip recovers the chip owning a plane index.
func (d *Device) planeChip(planeIdx int) flash.ChipID {
	return flash.ChipID(planeIdx / (d.cfg.Geo.DiesPerChip * d.cfg.Geo.PlanesPerDie))
}

// issue commits one of the job's flash requests, with the runner as token.
func (r *gcRun) issue(now sim.Time, op flash.Op, a flash.Addr) {
	r.dev.ctrls[r.dev.cfg.Geo.Channel(a.Chip)].commit(now, flash.Request{Op: op, Addr: a, Token: r})
}

// startReads issues the live-page reads. Jobs with no live pages skip
// straight to the erase.
func (r *gcRun) startReads(now sim.Time) {
	if len(r.job.Migrations) == 0 {
		r.startErase(now)
		return
	}
	r.phase = flash.OpRead
	r.remaining = len(r.job.Migrations)
	for _, mg := range r.job.Migrations {
		r.issue(now, flash.OpRead, mg.Src)
	}
}

func (r *gcRun) startPrograms(now sim.Time) {
	r.phase = flash.OpProgram
	r.remaining = len(r.job.Migrations)
	for _, mg := range r.job.Migrations {
		r.issue(now, flash.OpProgram, mg.Dst)
	}
}

func (r *gcRun) startErase(now sim.Time) {
	r.phase = flash.OpErase
	r.remaining = 1
	victim := r.job.Victim
	victim.Page = 0
	r.issue(now, flash.OpErase, victim)
}

// stepDone advances the job when a member flash request completes.
func (r *gcRun) stepDone(now sim.Time, kind flash.Op, failed bool) {
	if kind != r.phase {
		panic("ssd: GC completion out of phase")
	}
	if failed && kind == flash.OpErase {
		r.eraseFailed = true
	}
	r.remaining--
	if r.remaining > 0 {
		return
	}
	switch r.phase {
	case flash.OpRead:
		r.startPrograms(now)
	case flash.OpProgram:
		r.startErase(now)
	case flash.OpErase:
		r.finish(now)
	}
}

// finish commits the mapping changes, fires readdressing, and chains the
// next victim if the plane is still under pressure.
func (r *gcRun) finish(now sim.Time) {
	d := r.dev
	d.applyMigrations(d.fl.CommitGC(&r.job, r.eraseFailed))
	r.active = false
	d.gcActiveCount--
	d.start(now, r.planeIdx)
	// Freed space may unblock admission stalled on the allocator.
	d.drainBacklog(now)
	d.pump(now)
}

// applyMigrations is the readdressing callback (§4.3): still-queued reads
// whose physical address just moved are re-pointed at the new location —
// but only for schedulers that subscribe; the rest discover staleness at
// commit time and pay the penalty.
//
// A migration's source chip is known, so the ready index localizes the
// lookup to that chip's queued requests — no standing LPN map needs to be
// maintained on the admission path.
func (d *Device) applyMigrations(applied []ftl.Migration) {
	if !d.sch.NeedsReaddressing() {
		return
	}
	for _, mg := range applied {
		for _, m := range d.ready.List(mg.Src.Chip) {
			if m != nil && m.LPN == mg.LPN && m.Addr == mg.Src &&
				m.IO.Kind == req.Read && m.State == req.StateQueued {
				d.ready.Readdress(m, mg.Dst)
			}
		}
	}
}
