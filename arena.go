package sprinkler

import (
	"fmt"
	"sync"

	"sprinkler/internal/ftl"
)

// DeviceArena is a pool of reusable Devices keyed by platform topology,
// plus a registry of decoded warm-state snapshots. Building a device is
// the dominant per-cell cost of a mass sweep — controller, chip, FTL and
// kernel state all scale with the geometry — so the arena hands a drained
// device back out for the next cell on the same topology, Reset in place,
// instead of constructing a fresh one. Per-run knobs (scheduler, queue
// depth, GC policy, metrics options) may differ freely between the
// checkout's config and the device's previous run; only the seven
// geometry fields key the pool. The retired-I/O free lists ride along
// inside the pooled devices, so a sweep cell warms from hot pools rather
// than empty ones.
//
// Reuse is behaviour-preserving: a recycled device produces byte-identical
// Results to a fresh one (the reuse-parity tests pin this across every
// scheduler), so callers can treat the arena purely as an allocation
// optimization. The zero value is ready to use; a nil *DeviceArena is
// also valid and degrades to fresh construction, which is how Runner
// implements its NoReuse mode.
//
// MaxDevices, when positive, bounds how many devices stay pooled: a Put
// that would exceed it evicts the least-recently-used pooled device, so a
// cross-topology sweep cannot accumulate one large retained device per
// topology it ever visited. Set it before the arena is shared. Zero means
// unbounded.
//
// A DeviceArena is safe for concurrent use. The devices themselves are
// not: a checked-out device belongs to one goroutine until Put.
type DeviceArena struct {
	// MaxDevices caps pooled (checked-in) devices across all topologies;
	// 0 means unbounded.
	MaxDevices int

	mu      sync.Mutex
	free    map[topology][]pooledDevice
	devices int    // pooled device count across topologies
	seq     uint64 // LRU stamp source

	// meta retains the FTL block-metadata arena of the most recently
	// evicted device per topology (at most MaxDevices topologies, LRU),
	// so re-admitting an evicted topology rebuilds its device on the
	// retained arena instead of re-allocating block metadata. The mapping
	// tables — the bulk of a device's memory — are not retained, so the
	// eviction bound still bounds memory.
	meta map[topology]retainedMeta

	// snaps holds registered warm-state snapshots by name. Snapshots are
	// decoded once and shared read-only by every hydration, so a sweep
	// with a thousand aged-drive cells holds one decoded state, not a
	// thousand.
	snaps map[string]*DeviceSnapshot

	stats ArenaStats
}

// retainedMeta stamps a retained eviction arena for LRU bounding.
type retainedMeta struct {
	m     *ftl.BlockMeta
	stamp uint64
}

// ArenaStats counts arena traffic since construction. Hits are checkouts
// served by a pooled device, misses fell through to a fresh build (of
// which MetaReuses rebuilt on a retained eviction arena), and evictions
// count pooled devices dropped at the MaxDevices bound.
type ArenaStats struct {
	DeviceHits      uint64
	DeviceMisses    uint64
	DeviceEvictions uint64
	MetaReuses      uint64

	// SourceHits and SourceMisses are always zero: the arena pools no
	// workload sources, since every cell builds its own. The fields stay
	// for readers that still report them.
	SourceHits   uint64
	SourceMisses uint64
}

// Stats snapshots the arena's traffic counters. Nil-safe (zero stats).
func (a *DeviceArena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// pooledDevice stamps a checked-in device for LRU eviction. Put appends
// with an increasing stamp and Get pops from the end, so each topology's
// list stays stamp-sorted: index 0 is that topology's least recently used.
type pooledDevice struct {
	d     *Device
	stamp uint64
}

// topology is the arena key: the geometry fields a Device cannot change
// after construction.
type topology struct {
	channels, chipsPerChan, diesPerChip, planesPerDie int
	blocksPerPlane, pagesPerBlock, pageSize           int
}

func topologyOf(cfg Config) topology {
	return topology{
		channels:       cfg.Channels,
		chipsPerChan:   cfg.ChipsPerChan,
		diesPerChip:    cfg.DiesPerChip,
		planesPerDie:   cfg.PlanesPerDie,
		blocksPerPlane: cfg.BlocksPerPlane,
		pagesPerBlock:  cfg.PagesPerBlock,
		pageSize:       cfg.PageSize,
	}
}

// NewDeviceArena returns an empty unbounded arena.
func NewDeviceArena() *DeviceArena { return &DeviceArena{} }

// Get checks a device out of the arena for cfg: a pooled device on the
// same topology is Reset to cfg and returned; otherwise a fresh one is
// built. On a nil arena Get always builds fresh.
func (a *DeviceArena) Get(cfg Config) (*Device, error) {
	if a == nil {
		return New(cfg)
	}
	key := topologyOf(cfg)
	a.mu.Lock()
	var d *Device
	var meta *ftl.BlockMeta
	if l := a.free[key]; len(l) > 0 {
		d = l[len(l)-1].d
		l[len(l)-1] = pooledDevice{}
		a.free[key] = l[:len(l)-1]
		a.devices--
		a.stats.DeviceHits++
	} else {
		a.stats.DeviceMisses++
		// A fresh build for a topology we evicted earlier rebuilds on the
		// retained block-metadata arena. The entry is consumed: the arena
		// is aliased by the new device from here on.
		if r, ok := a.meta[key]; ok {
			meta = r.m
			delete(a.meta, key)
			a.stats.MetaReuses++
		}
	}
	a.mu.Unlock()
	if d != nil {
		if err := d.Reset(cfg); err != nil {
			// An invalid config fails identically through New below; a
			// pooled device is never lost to a config it could serve.
			return nil, err
		}
		return d, nil
	}
	return newWithMeta(cfg, meta)
}

// RegisterSnapshot registers a decoded warm-state snapshot under a name
// for GetFromSnapshot checkouts. Re-registering a name replaces the
// earlier snapshot. The snapshot is shared read-only across hydrations;
// registering on a nil arena is a no-op (nothing could ever look it up).
func (a *DeviceArena) RegisterSnapshot(name string, snap *DeviceSnapshot) {
	if a == nil || snap == nil {
		return
	}
	a.mu.Lock()
	if a.snaps == nil {
		a.snaps = make(map[string]*DeviceSnapshot)
	}
	a.snaps[name] = snap
	a.mu.Unlock()
}

// Snapshot returns the snapshot registered under name, if any. Nil-safe.
func (a *DeviceArena) Snapshot(name string) (*DeviceSnapshot, bool) {
	if a == nil {
		return nil, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.snaps[name]
	return s, ok
}

// GetFromSnapshot checks a device out of the arena hydrated from the
// named registered snapshot: the checkout goes through the ordinary Get
// path (a pooled device on the snapshot's topology is Reset in place,
// interacting with LRU eviction and the retained block-metadata arenas
// exactly as any other checkout does), then the warm state is loaded
// onto it. The optional cfg overrides the snapshot's embedded config; it
// must satisfy CompatibleConfig — warm state is scheduler-independent, so
// an aged-drive sweep hydrates one preconditioned state under each
// scheduler at fresh-drive cost, but a knob that shaped the warm-up
// itself is refused rather than silently diverging from a replay.
//
// On a hydration error the device is discarded, never pooled: its state
// may be partially applied.
func (a *DeviceArena) GetFromSnapshot(name string, cfg ...Config) (*Device, error) {
	snap, ok := a.Snapshot(name)
	if !ok {
		return nil, fmt.Errorf("sprinkler: no snapshot registered as %q", name)
	}
	runCfg := snap.cfg
	if len(cfg) > 1 {
		return nil, fmt.Errorf("sprinkler: GetFromSnapshot takes at most one config override")
	}
	if len(cfg) == 1 {
		if !snap.CompatibleConfig(cfg[0]) {
			return nil, fmt.Errorf("sprinkler: config for snapshot %q differs beyond the scheduler and series knobs", name)
		}
		runCfg = cfg[0]
	}
	d, err := a.Get(runCfg)
	if err != nil {
		return nil, err
	}
	if err := snap.hydrate(d); err != nil {
		return nil, err
	}
	return d, nil
}

// Put returns a device to the arena for reuse, evicting the
// least-recently-used pooled device when MaxDevices would be exceeded.
// Only hand back devices whose run completed (drained) — a device
// abandoned mid-run holds live simulation state and must simply be
// dropped instead. Put on a nil arena discards the device.
func (a *DeviceArena) Put(d *Device) {
	if a == nil || d == nil {
		return
	}
	key := topologyOf(d.cfg)
	a.mu.Lock()
	if a.free == nil {
		a.free = make(map[topology][]pooledDevice)
	}
	a.seq++
	a.free[key] = append(a.free[key], pooledDevice{d: d, stamp: a.seq})
	a.devices++
	for a.MaxDevices > 0 && a.devices > a.MaxDevices {
		a.evictLocked()
	}
	a.mu.Unlock()
}

// evictLocked drops the globally least-recently-used pooled device: the
// minimum stamp over every topology list's head (lists are stamp-sorted).
func (a *DeviceArena) evictLocked() {
	var oldestKey topology
	var oldest uint64
	found := false
	for key, l := range a.free {
		if len(l) == 0 {
			continue
		}
		if !found || l[0].stamp < oldest {
			found = true
			oldest = l[0].stamp
			oldestKey = key
		}
	}
	if !found {
		return
	}
	l := a.free[oldestKey]
	evicted := l[0].d
	copy(l, l[1:])
	l[len(l)-1] = pooledDevice{}
	if len(l) == 1 {
		delete(a.free, oldestKey)
	} else {
		a.free[oldestKey] = l[:len(l)-1]
	}
	a.devices--
	a.stats.DeviceEvictions++
	// Keep the evicted device's FTL block-metadata arena (its mapping
	// tables and kernel state go with the device) so re-admission of this
	// topology after the eviction is cheap. One retained arena per
	// topology, at most MaxDevices topologies, LRU-bounded like the pools.
	if a.meta == nil {
		a.meta = make(map[topology]retainedMeta)
	}
	a.seq++
	a.meta[oldestKey] = retainedMeta{m: evicted.inner.FTL().DetachBlockMeta(), stamp: a.seq}
	max := a.MaxDevices
	if max < 1 {
		max = 1
	}
	for len(a.meta) > max {
		var oldKey topology
		var old uint64
		first := true
		for k, r := range a.meta {
			if first || r.stamp < old {
				first = false
				old = r.stamp
				oldKey = k
			}
		}
		delete(a.meta, oldKey)
	}
}

// Size reports how many devices are pooled (checked in) across all
// topologies.
func (a *DeviceArena) Size() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.devices
}
