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
// the mapping changes. The commit fires the FTL's migration observer,
// which the device turns into the readdressing callback for schedulers
// that subscribe to it; other schedulers are left with stale physical
// addresses and pay the re-translation penalty at commit time.

// gcStep is the token attached to internal GC flash requests; advance
// drives the per-job state machine as member requests complete.
type gcStep struct {
	run  *gcRun
	kind flash.Op
}

func (s *gcStep) advance(now sim.Time, failed bool) { s.run.stepDone(now, s.kind, failed) }

// gcRun tracks one in-flight GC job on a chip.
type gcRun struct {
	dev       *Device
	chip      flash.ChipID
	planeIdx  int
	job       *ftl.GCJob
	remaining int
	phase     flash.Op // current phase: read -> program -> erase

	// eraseFailed records a chip-level erase failure on the victim; the
	// commit then retires the block to the spare pool instead of freeing
	// it. Failed GC reads/programs are absorbed (the migration's mapping
	// still commits): the model tracks timing and wear, not payload
	// integrity, and the chip-level counters already record them.
	eraseFailed bool
}

// maybeStartGC launches background collection for the plane containing
// addr when it is under pressure and the chip has no GC in flight.
func (d *Device) maybeStartGC(now sim.Time, addr flash.Addr) {
	if d.gcActive[addr.Chip] {
		return
	}
	pi := d.planeIndex(addr)
	if !d.fl.PlaneUnderPressure(pi) {
		return
	}
	job, err := d.fl.PlanGC(pi)
	if err != nil || job == nil {
		return
	}
	d.setGCActive(addr.Chip, true)
	run := &gcRun{dev: d, chip: addr.Chip, planeIdx: pi, job: job}
	run.startReads(now)
}

// setGCActive flips a chip's background-GC flag, keeping the active count
// current (admission stalls consult the count).
func (d *Device) setGCActive(c flash.ChipID, on bool) {
	if d.gcActive[c] == on {
		return
	}
	d.gcActive[c] = on
	if on {
		d.gcActiveCount++
	} else {
		d.gcActiveCount--
	}
}

func (d *Device) planeIndex(a flash.Addr) int {
	return (int(a.Chip)*d.cfg.Geo.DiesPerChip+a.Die)*d.cfg.Geo.PlanesPerDie + a.Plane
}

// planeChip recovers the chip owning a plane index.
func (d *Device) planeChip(planeIdx int) flash.ChipID {
	return flash.ChipID(planeIdx / (d.cfg.Geo.DiesPerChip * d.cfg.Geo.PlanesPerDie))
}

func (r *gcRun) ctl() *controller {
	return r.dev.ctrls[r.dev.cfg.Geo.Channel(r.chip)]
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
		r.ctl().commit(now, flash.Request{Op: flash.OpRead, Addr: mg.Src, Token: &gcStep{run: r, kind: flash.OpRead}})
	}
}

func (r *gcRun) startPrograms(now sim.Time) {
	r.phase = flash.OpProgram
	r.remaining = len(r.job.Migrations)
	for _, mg := range r.job.Migrations {
		ch := r.dev.cfg.Geo.Channel(mg.Dst.Chip)
		r.dev.ctrls[ch].commit(now, flash.Request{Op: flash.OpProgram, Addr: mg.Dst, Token: &gcStep{run: r, kind: flash.OpProgram}})
	}
}

func (r *gcRun) startErase(now sim.Time) {
	r.phase = flash.OpErase
	r.remaining = 1
	victim := r.job.Victim
	victim.Page = 0
	r.ctl().commit(now, flash.Request{Op: flash.OpErase, Addr: victim, Token: &gcStep{run: r, kind: flash.OpErase}})
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
	applied := d.fl.CommitGC(r.job, r.eraseFailed)
	d.applyMigrations(applied)
	d.setGCActive(r.chip, false)
	// Chain another pass while the plane stays pressured.
	if d.fl.PlaneUnderPressure(r.planeIdx) {
		if job, err := d.fl.PlanGC(r.planeIdx); err == nil && job != nil {
			d.setGCActive(r.chip, true)
			next := &gcRun{dev: d, chip: r.chip, planeIdx: r.planeIdx, job: job}
			next.startReads(now)
		}
	}
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
