package sprinkler

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"sprinkler/internal/ssd"
)

// Warm-state snapshots: precondition once, hydrate everywhere.
//
// Preconditioning a large platform to GC steady state costs minutes of
// wall-clock at figure scale and is byte-identical every time it runs
// with the same parameters — so pay it once. Checkpoint serializes a
// quiescent device's complete warm state (FTL page tables and wear,
// per-plane spare pools and bad-block retirements, metrics accumulators,
// queue admission counters, engine clocks, and every deterministic RNG
// stream position) into a versioned, checksummed binary file, and
// RestoreDevice rebuilds a device from it that behaves byte-identically
// to one that replayed the warm-up. The snapshot embeds the full Config
// it was captured under; restoring never requires — and never accepts —
// a second configuration that could drift from it.
//
// File layout (all integers little-endian):
//
//	[8]  magic "SPKSNAP1"
//	[4]  format version (uint32)
//	[v]  uvarint config length, then that many bytes of Config JSON
//	[v]  uvarint payload length, then the binary device-state payload
//	[4]  CRC-32 (IEEE) of everything above
//
// Readers load the whole file and verify the checksum before decoding a
// single field, so a truncated or corrupted snapshot is rejected with a
// descriptive error and nothing is ever partially hydrated.

// snapshotMagic brands snapshot files; the trailing digit is bumped only
// if the framing itself (not the payload) changes shape.
const snapshotMagic = "SPKSNAP1"

// SnapshotVersion is the current snapshot format version. Readers reject
// other versions rather than guess at payload layout.
const SnapshotVersion = 1

// DeviceSnapshot is a decoded warm-state snapshot: the configuration it
// was captured under plus the device state. Decode once with
// ReadSnapshot, then hydrate any number of devices from it, all sharing
// the one decoded state read-only: NewDevice builds fresh ones, and
// Grid.Snapshot, Cell.Snapshot and WithSnapshot hydrate devices checked
// out of a DeviceArena.
type DeviceSnapshot struct {
	cfg   Config
	state *ssd.DeviceState
}

// Config returns the configuration the snapshot was captured under.
func (s *DeviceSnapshot) Config() Config { return s.cfg }

// SnapshotStats summarizes how aged a snapshot's captured device is —
// the numbers a catalog shows so a client can pick a warm state without
// hydrating it. All counters are cumulative over the capture's history.
type SnapshotStats struct {
	// SimTimeNS is the captured simulation clock.
	SimTimeNS int64 `json:"simTimeNS"`

	// IOsCompleted counts host I/Os the captured device had completed.
	IOsCompleted int64 `json:"iosCompleted"`

	// HostWrites/GCRuns/GCErases measure the aging itself: page writes
	// the host issued, and how much background collection they forced.
	HostWrites int64 `json:"hostWrites"`
	GCRuns     int64 `json:"gcRuns"`
	GCErases   int64 `json:"gcErases"`

	// BadBlocks/RetiredBlocks/SparesUsed/Degraded carry the fault
	// model's wear state: blocks retired to the spare pool and whether
	// the drive was already degraded to read-only when captured.
	BadBlocks     int64 `json:"badBlocks,omitempty"`
	RetiredBlocks int64 `json:"retiredBlocks,omitempty"`
	SparesUsed    int64 `json:"sparesUsed,omitempty"`
	Degraded      bool  `json:"degraded,omitempty"`

	// SeriesPoints counts carried latency-series points (non-zero only
	// for mid-experiment captures, which constrain hydration configs).
	SeriesPoints int `json:"seriesPoints,omitempty"`
}

// Stats summarizes the snapshot's warm state.
func (s *DeviceSnapshot) Stats() SnapshotStats {
	return SnapshotStats{
		SimTimeNS:     int64(s.state.Engine.Now),
		IOsCompleted:  s.state.IOsDone,
		HostWrites:    s.state.FTL.HostWrites,
		GCRuns:        s.state.FTL.GCRuns,
		GCErases:      s.state.FTL.GCErases,
		BadBlocks:     s.state.FTL.RetiredBlocks,
		RetiredBlocks: s.state.FTL.RetiredBlocks,
		SparesUsed:    s.state.FTL.SparesUsed,
		Degraded:      s.state.FTL.Degraded,
		SeriesPoints:  len(s.state.Series),
	}
}

// CompatibleConfig reports whether cfg may run on a device hydrated from
// this snapshot: it must equal the captured configuration in every field
// except Scheduler, CollectSeries and SeriesWindow. Warm state is
// scheduler-independent (preconditioning never touches the scheduler, and
// per-run scheduler state is never part of a snapshot), and the series
// knobs only select what a run records. Any other difference would change
// what the warm-up itself produced, so it is refused. One caveat is
// enforced at hydration time: a snapshot that itself carries
// latency-series points (captured mid-experiment rather than after
// preconditioning) requires the series knobs to match exactly, since a
// different window would have retained a different history.
func (s *DeviceSnapshot) CompatibleConfig(cfg Config) bool {
	c := s.cfg
	c.Scheduler = cfg.Scheduler
	c.CollectSeries = cfg.CollectSeries
	c.SeriesWindow = cfg.SeriesWindow
	return c == cfg
}

// Checkpoint writes the device's complete warm state to w. The device
// must be quiescent — freshly preconditioned, drained, or reset; a
// checkpoint mid-run (I/Os in flight, events pending) is refused.
func (d *Device) Checkpoint(w io.Writer) error {
	st, err := d.inner.CaptureState()
	if err != nil {
		return err
	}
	return encodeSnapshot(w, d.cfg, st)
}

// RestoreDevice reads a snapshot and builds a device from it, ready to
// run as if it had just replayed the warm-up the snapshot captured.
func RestoreDevice(r io.Reader) (*Device, error) {
	snap, err := ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return snap.NewDevice()
}

// ReadSnapshot reads and fully validates a snapshot: magic, version,
// checksum, configuration, payload structure, and the payload's shape
// against the configuration (chips, planes, blocks per plane, fault
// streams, series length), so every chip and block a file names is
// accounted for by its payload. Nothing device-shaped is built yet; use
// NewDevice (or Grid.Snapshot, or WithSnapshot) for that.
func ReadSnapshot(r io.Reader) (*DeviceSnapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sprinkler: reading snapshot: %w", err)
	}
	const overhead = len(snapshotMagic) + 4 /* version */ + 1 + 1 /* min lengths */ + 4 /* crc */
	if len(raw) < overhead {
		return nil, fmt.Errorf("sprinkler: snapshot truncated: %d bytes is shorter than the minimal header", len(raw))
	}
	if string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("sprinkler: not a snapshot file (bad magic %q)", raw[:len(snapshotMagic)])
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("sprinkler: snapshot checksum mismatch (file corrupted or truncated): computed %08x, stored %08x", got, want)
	}
	rest := body[len(snapshotMagic):]
	version := binary.LittleEndian.Uint32(rest[:4])
	if version != SnapshotVersion {
		return nil, fmt.Errorf("sprinkler: snapshot format version %d not supported (this build reads version %d)", version, SnapshotVersion)
	}
	rest = rest[4:]
	cfgJSON, rest, err := lengthPrefixed(rest, "config")
	if err != nil {
		return nil, err
	}
	payload, rest, err := lengthPrefixed(rest, "payload")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sprinkler: snapshot has %d trailing bytes after the payload", len(rest))
	}
	var stored storedConfig
	dec := json.NewDecoder(bytes.NewReader(cfgJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&stored); err != nil {
		return nil, fmt.Errorf("sprinkler: snapshot config: %w", err)
	}
	cfg := stored.Config
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sprinkler: snapshot config invalid: %w", err)
	}
	st, err := ssd.DecodeDeviceState(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("sprinkler: %w", err)
	}
	icfg, err := cfg.internalConfig()
	if err != nil {
		return nil, fmt.Errorf("sprinkler: snapshot config invalid: %w", err)
	}
	if err := st.CheckShape(icfg); err != nil {
		return nil, fmt.Errorf("sprinkler: snapshot payload does not match its config: %w", err)
	}
	return &DeviceSnapshot{cfg: cfg, state: st}, nil
}

// storedConfig is a snapshot's config section as files may hold it. Files
// written by earlier builds carry keys for since-removed knobs, read and
// ignored: ParallelChannels, the worker count of a per-channel event
// kernel that never affected Results, and MaxBacklog, a host-side backlog
// bound that source-driven runs now always set to the queue depth.
type storedConfig struct {
	Config
	ParallelChannels int
	MaxBacklog       int
}

// NewDevice builds a fresh device from the snapshot. The optional cfg
// overrides the embedded configuration; it must satisfy CompatibleConfig
// — warm state is scheduler-independent, so one preconditioned snapshot
// hydrates a device for each scheduler under test.
func (s *DeviceSnapshot) NewDevice(cfg ...Config) (*Device, error) {
	runCfg := s.cfg
	if len(cfg) > 1 {
		return nil, fmt.Errorf("sprinkler: NewDevice takes at most one config override")
	}
	if len(cfg) == 1 {
		runCfg = cfg[0]
	}
	return s.checkout(nil, runCfg)
}

// checkout is the one path that hands out devices for a run (Runner
// cells, Open, NewDevice): it checks a device for cfg out of a (a nil
// arena builds fresh) and, when s is non-nil, loads the snapshot's warm
// state onto it. cfg must satisfy CompatibleConfig and its series caveat;
// both are checked before any device is checked out. On a hydration
// error the device is dropped, never pooled: its state may be partially
// applied.
func (s *DeviceSnapshot) checkout(a *DeviceArena, cfg Config) (*Device, error) {
	if s != nil {
		if !s.CompatibleConfig(cfg) {
			return nil, fmt.Errorf("sprinkler: config differs from the snapshot's beyond the scheduler and series knobs")
		}
		if len(s.state.Series) > 0 &&
			(cfg.CollectSeries != s.cfg.CollectSeries || cfg.SeriesWindow != s.cfg.SeriesWindow) {
			return nil, fmt.Errorf("sprinkler: snapshot carries a latency series; CollectSeries/SeriesWindow must match the captured config")
		}
	}
	d, err := a.Get(cfg)
	if err != nil || s == nil {
		return d, err
	}
	if err := d.inner.LoadState(s.state); err != nil {
		return nil, fmt.Errorf("sprinkler: hydrating from snapshot: %w", err)
	}
	return d, nil
}

// encodeSnapshot frames config + payload with magic, version and CRC.
func encodeSnapshot(w io.Writer, cfg Config, st *ssd.DeviceState) error {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("sprinkler: encoding snapshot config: %w", err)
	}
	var payload bytes.Buffer
	if err := st.Encode(&payload); err != nil {
		return fmt.Errorf("sprinkler: encoding snapshot payload: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(snapshotMagic) + 4 + 2*binary.MaxVarintLen64 + len(cfgJSON) + payload.Len() + 4)
	buf.WriteString(snapshotMagic)
	var scratch [binary.MaxVarintLen64]byte
	binary.LittleEndian.PutUint32(scratch[:4], SnapshotVersion)
	buf.Write(scratch[:4])
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(cfgJSON)))])
	buf.Write(cfgJSON)
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(payload.Len()))])
	buf.Write(payload.Bytes())
	binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(scratch[:4])
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("sprinkler: writing snapshot: %w", err)
	}
	return nil
}

// lengthPrefixed splits one uvarint-length-prefixed section off b.
func lengthPrefixed(b []byte, what string) (section, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, fmt.Errorf("sprinkler: snapshot %s length malformed", what)
	}
	b = b[w:]
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("sprinkler: snapshot %s length %d exceeds remaining %d bytes", what, n, len(b))
	}
	return b[:n], b[n:], nil
}
