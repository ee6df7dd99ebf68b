package sprinkler

import "sync"

// DeviceArena is a pool of reusable Devices keyed by platform topology.
// Building a device is the dominant per-cell cost of a mass sweep —
// controller, chip, FTL and kernel state all scale with the geometry — so
// the arena hands a drained device back out for the next cell on the same
// topology, Reset in place, instead of constructing a fresh one. Per-run
// knobs (scheduler, queue depth, GC policy, metrics options) may differ
// freely between the checkout's config and the device's previous run;
// only the seven geometry fields key the pool. The retired-I/O free lists
// ride along inside the pooled devices, so a sweep cell warms from hot
// pools rather than empty ones. Aged-drive cells check out the same way
// and then load a shared, decoded DeviceSnapshot onto the device (see
// Grid.Snapshot and WithSnapshot).
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

	stats ArenaStats
}

// ArenaStats counts arena traffic since construction. Hits are checkouts
// served by a pooled device, misses fell through to a fresh build, and
// evictions count pooled devices dropped at the MaxDevices bound.
type ArenaStats struct {
	DeviceHits      uint64
	DeviceMisses    uint64
	DeviceEvictions uint64

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
// built. On a nil arena Get always builds fresh. An invalid cfg is
// refused before checkout, so it takes no pooled device and counts
// neither a hit nor a miss.
func (a *DeviceArena) Get(cfg Config) (*Device, error) {
	if a == nil {
		return New(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key := topologyOf(cfg)
	a.mu.Lock()
	var d *Device
	if l := a.free[key]; len(l) > 0 {
		d = l[len(l)-1].d
		l[len(l)-1] = pooledDevice{}
		a.free[key] = l[:len(l)-1]
		a.devices--
		a.stats.DeviceHits++
	} else {
		a.stats.DeviceMisses++
	}
	a.mu.Unlock()
	if d == nil {
		return New(cfg)
	}
	if err := d.Reset(cfg); err != nil {
		// cfg passed Validate and the topology matches, so this is not
		// a config error; the device is dropped.
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
	copy(l, l[1:])
	l[len(l)-1] = pooledDevice{}
	if len(l) == 1 {
		delete(a.free, oldestKey)
	} else {
		a.free[oldestKey] = l[:len(l)-1]
	}
	a.devices--
	a.stats.DeviceEvictions++
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
