package ssd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"sprinkler/internal/flash"
	"sprinkler/internal/ftl"
	"sprinkler/internal/metrics"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/sim"
)

// Warm-state device checkpoint/restore. A checkpoint is taken at
// quiescence — no host I/O in flight and every event queue drained —
// which is exactly the state a device is in after Precondition (the
// expensive warm-up this exists to amortize) or after a run drains. At
// quiescence all transient machinery is provably empty: no chip holds an
// in-flight transaction or retry-ladder state, every controller's
// committed queues are empty, the DMA composer
// and host backlog are idle, the buses are free, and no timer is
// pending. None of it is serialized. What remains — and what DeviceState
// carries — is the FTL's warm layout, the engine clock, the
// device-level queue's admission counters, the metrics accumulators, the
// per-chip statistics, and the positions of every deterministic RNG
// stream. Restoring that onto a freshly built device of the same
// configuration yields a device byte-identical in behaviour to one that
// replayed the warm-up.

// ChipState is the persistent per-chip state: the accounting counters
// behind metrics.ChipSample, held by value, and the fault-stream
// generator position.
type ChipState struct {
	Stats   flash.ChipStats
	HasFRNG bool
	FRNG    uint64
}

// DeviceState is the complete persistent state of a quiescent Device.
type DeviceState struct {
	FTL ftl.State

	Engine sim.EngineClock

	Queue nvmhc.QueueState

	// Device accounting.
	BusyIntegral   float64
	SysBusyTime    sim.Time
	LastAccount    sim.Time
	EmergencyGCs   int64
	StaleFixes     int64
	FailedIOs      int64
	BytesRead      int64
	BytesWritten   int64
	IOsDone        int64
	LastCompletion sim.Time

	Latency sim.HistogramState

	// Series is the collected latency series in completion order (the
	// windowed ring is unrolled; restore continues overwriting from the
	// front, which is behaviourally identical).
	Series []metrics.SeriesPoint

	// Chips is indexed in (channel, chip offset) order.
	Chips []ChipState
}

// CaptureState snapshots a quiescent device's persistent state. It
// errors when the device is not quiescent: host I/Os in flight, events
// pending, or (belt and braces — these are implied by the first two)
// anything transient non-empty.
func (d *Device) CaptureState() (*DeviceState, error) {
	if d.inflight != 0 {
		return nil, fmt.Errorf("ssd: checkpoint with %d host I/Os in flight", d.inflight)
	}
	if d.eng.Pending() != 0 {
		return nil, fmt.Errorf("ssd: checkpoint with %d events pending", d.eng.Pending())
	}
	if d.composeTimer.Pending() || d.composeHead < len(d.composeQ) {
		return nil, fmt.Errorf("ssd: checkpoint with DMA compositions in flight")
	}
	if d.backlogLen() != 0 {
		return nil, fmt.Errorf("ssd: checkpoint with %d host I/Os backlogged", d.backlogLen())
	}
	qs, err := d.queue.State()
	if err != nil {
		return nil, fmt.Errorf("ssd: checkpoint: %w", err)
	}
	st := &DeviceState{
		FTL:            d.fl.CaptureState(),
		Engine:         d.eng.Clock(),
		Queue:          qs,
		BusyIntegral:   d.busyIntegral,
		SysBusyTime:    d.sysBusyTime,
		LastAccount:    d.lastAccount,
		EmergencyGCs:   d.emergencyGCs,
		StaleFixes:     d.staleFixes,
		FailedIOs:      d.failedIOs,
		BytesRead:      d.bytesRead,
		BytesWritten:   d.bytesWritten,
		IOsDone:        d.iosDone,
		LastCompletion: d.lastCompletion,
	}
	hs := d.latency.ExportState()
	hs.Samples = append([]float64(nil), hs.Samples...)
	if hs.Buckets != nil {
		hs.Buckets = append([]uint64(nil), hs.Buckets...)
	}
	st.Latency = hs
	if s := d.seriesSnapshot(); len(s) > 0 {
		st.Series = append([]metrics.SeriesPoint(nil), s...)
	}
	st.Chips = make([]ChipState, 0, d.cfg.Geo.NumChips())
	for ch := range d.ctrls {
		for off := 0; off < d.cfg.Geo.ChipsPerChan; off++ {
			chip := d.ctrls[ch].chip(d.cfg.Geo.ChipAt(ch, off))
			if chip.Busy() {
				return nil, fmt.Errorf("ssd: checkpoint with chip %d busy", chip.ID)
			}
			out := ChipState{Stats: *chip.Stats()}
			out.FRNG, out.HasFRNG = chip.FaultRNGState()
			st.Chips = append(st.Chips, out)
		}
	}
	return st, nil
}

// NewFTLImage builds the FTL a device of cfg holds once st is loaded:
// a fresh FTL with st.FTL restored, bounds-checked and verified by
// CheckInvariants. LoadState copies the image and reads none of st.FTL's
// mappings, so one image, built and checked once, hydrates any number of
// devices; nothing may run on it.
func NewFTLImage(cfg Config, st *DeviceState) (*ftl.FTL, error) {
	f, err := ftl.New(cfg.ftlConfig())
	if err != nil {
		return nil, err
	}
	if err := f.RestoreState(st.FTL); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadState rehydrates a freshly built (or Reset) device from a captured
// state whose FTL image (NewFTLImage) is img. The device's configuration
// must be the one the state was captured under — the public snapshot
// format embeds the config and rebuilds the device from it, so a mismatch
// here means a corrupted or hand-altered snapshot and is reported as an
// error. On error the device is in an unspecified state and must be
// discarded, never run.
func (d *Device) LoadState(st *DeviceState, img *ftl.FTL) error {
	if err := st.CheckShape(d.cfg); err != nil {
		return err
	}
	if err := d.fl.CopyFrom(img); err != nil {
		return err
	}
	d.eng.SetClock(st.Engine)
	d.queue.SetState(st.Queue)
	d.busyIntegral = st.BusyIntegral
	d.sysBusyTime = st.SysBusyTime
	d.lastAccount = st.LastAccount
	d.emergencyGCs = st.EmergencyGCs
	d.staleFixes = st.StaleFixes
	d.failedIOs = st.FailedIOs
	d.bytesRead = st.BytesRead
	d.bytesWritten = st.BytesWritten
	d.iosDone = st.IOsDone
	d.lastCompletion = st.LastCompletion
	d.latency.ImportState(st.Latency)
	d.series = d.series[:0]
	d.series = append(d.series, st.Series...)
	d.seriesHead = 0
	i := 0
	for ch := range d.ctrls {
		for off := 0; off < d.cfg.Geo.ChipsPerChan; off++ {
			chip := d.ctrls[ch].chip(d.cfg.Geo.ChipAt(ch, off))
			in := &st.Chips[i]
			i++
			*chip.Stats() = in.Stats
			if in.HasFRNG {
				chip.SetFaultRNGState(in.FRNG)
			}
		}
	}
	return nil
}

// CheckShape reports whether the state fits a device built from cfg: the
// chip count, the FTL's plane count and blocks per plane, each chip's
// fault-stream presence, and the series length against the window must
// all agree. Checking a decoded payload against its embedded config
// before building anything means every chip and block a snapshot file
// names is accounted for by its payload.
func (st *DeviceState) CheckShape(cfg Config) error {
	g := cfg.Geo
	if n := g.NumChips(); len(st.Chips) != n {
		return fmt.Errorf("ssd: snapshot has %d chips, config has %d", len(st.Chips), n)
	}
	if n := g.NumChips() * g.DiesPerChip * g.PlanesPerDie; len(st.FTL.Planes) != n {
		return fmt.Errorf("ssd: snapshot has %d FTL planes, config has %d", len(st.FTL.Planes), n)
	}
	for i := range st.FTL.Planes {
		if n := len(st.FTL.Planes[i].Blocks); n != g.BlocksPerPlane {
			return fmt.Errorf("ssd: snapshot plane %d has %d blocks, config has %d", i, n, g.BlocksPerPlane)
		}
	}
	faults := cfg.Faults.Enabled()
	for i := range st.Chips {
		if st.Chips[i].HasFRNG != faults {
			return fmt.Errorf("ssd: snapshot chip %d fault stream (present=%v) does not match config (present=%v)",
				i, st.Chips[i].HasFRNG, faults)
		}
	}
	if w := cfg.SeriesWindow; cfg.CollectSeries && w > 0 && len(st.Series) > w {
		return fmt.Errorf("ssd: snapshot series holds %d points, window is %d", len(st.Series), w)
	}
	return nil
}

// ---------------------------------------------------------------------
// Binary payload codec. Integers are varint/uvarint (delta-coded where
// monotone), floats are fixed 8-byte little-endian IEEE 754, booleans
// one byte. The framing (magic, version, embedded config, CRC trailer)
// belongs to the public snapshot format; this codec is versioned through
// that header.
//
// The layout lives only in DeviceState.code: one walk over the state
// that hands each field to a stateCodec, which appends it when encoding
// and reads into it when decoding. Append and DecodeDeviceState only set
// the codec up, so writer and reader cannot disagree on the order.

// stateCodec appends to out or, when decoding, reads from in. Every
// primitive takes a pointer to the field it codes and does nothing after
// the first error. Encoding only reads the fields; only decoding stores
// into them.
type stateCodec struct {
	out []byte // encoding: the payload so far
	in  []byte // decoding: the unread payload
	dec bool   // decoding, not encoding
	err error
}

func (c *stateCodec) fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// errVarintOverflow is binary.ReadUvarint's error for a varint past 64
// bits, under the same text.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// varintErr explains a varint that did not decode from left unread bytes,
// n being binary.Uvarint's count: the error binary.ReadUvarint would have
// returned reading them one by one. Ten bytes that all continue overflow
// there, while binary.Uvarint reports them as too short.
func varintErr(n, left int) error {
	switch {
	case n < 0 || left >= binary.MaxVarintLen64:
		return errVarintOverflow
	case left == 0:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

func (c *stateCodec) uvarint(v *uint64) {
	switch {
	case c.err != nil:
	case c.dec:
		x, n := binary.Uvarint(c.in)
		if n <= 0 {
			c.fail(varintErr(n, len(c.in)))
			return
		}
		*v, c.in = x, c.in[n:]
	default:
		c.out = binary.AppendUvarint(c.out, *v)
	}
}

func (c *stateCodec) varint(v *int64) {
	switch {
	case c.err != nil:
	case c.dec:
		x, n := binary.Varint(c.in)
		if n <= 0 {
			c.fail(varintErr(n, len(c.in)))
			return
		}
		*v, c.in = x, c.in[n:]
	default:
		c.out = binary.AppendVarint(c.out, *v)
	}
}

func (c *stateCodec) time(v *sim.Time) { c.varint((*int64)(v)) }

// uvarintInt and varintInt code an int field.
func (c *stateCodec) uvarintInt(v *int) {
	x := uint64(*v)
	if c.uvarint(&x); c.dec {
		*v = int(x)
	}
}

func (c *stateCodec) varintInt(v *int) {
	x := int64(*v)
	if c.varint(&x); c.dec {
		*v = int(x)
	}
}

func (c *stateCodec) u64(v *uint64) {
	switch {
	case c.err != nil:
	case c.dec:
		if len(c.in) < 8 {
			c.fail(io.EOF)
			return
		}
		*v, c.in = binary.LittleEndian.Uint64(c.in), c.in[8:]
	default:
		c.out = binary.LittleEndian.AppendUint64(c.out, *v)
	}
}

func (c *stateCodec) f64(v *float64) {
	x := math.Float64bits(*v)
	if c.u64(&x); c.dec {
		*v = math.Float64frombits(x)
	}
}

func (c *stateCodec) bool(v *bool) {
	switch {
	case c.err != nil:
	case c.dec:
		switch {
		case len(c.in) == 0:
			c.fail(io.EOF)
		case c.in[0] > 1:
			c.fail(fmt.Errorf("invalid boolean byte 0x%02x", c.in[0]))
		default:
			*v, c.in = c.in[0] == 1, c.in[1:]
		}
	default:
		b := byte(0)
		if *v {
			b = 1
		}
		c.out = append(c.out, b)
	}
}

// count codes a uvarint length field. Decoding bounds it by max and by
// the unread bytes (every element encodes to at least one byte); the
// bounds turn a corrupt length into a descriptive error instead of a huge
// allocation. After an error the count is zero.
func (c *stateCodec) count(what string, n *int, max uint64) {
	x := uint64(*n)
	c.uvarint(&x)
	if !c.dec {
		return
	}
	if x > max {
		c.fail(fmt.Errorf("%s count %d exceeds limit %d", what, x, max))
	}
	if x > uint64(len(c.in)) {
		c.fail(fmt.Errorf("%s count %d exceeds the %d unread payload bytes", what, x, len(c.in)))
	}
	*n = 0
	if c.err == nil {
		*n = int(x)
	}
}

// codeLen codes a slice's length and, when decoding, replaces the slice
// with a zeroed one of that length for the walk to fill.
func codeLen[T any](c *stateCodec, what string, s *[]T, max uint64) int {
	n := len(*s)
	if c.count(what, &n, max); c.dec {
		*s = make([]T, n)
	}
	return n
}

// pairs codes the L2P map delta-coded over its sorted LPNs: a count,
// then per pair the uvarint distance of its LPN from the previous one
// (from 0 for the first) and its PPN. It is nearly all of an aged
// drive's payload, so it runs its own loop rather than a primitive call
// per field. A pair takes at least two bytes, so decoding presizes the
// pairs to the count capped at half the unread bytes: a corrupt count
// allocates no more than the input could hold.
func (c *stateCodec) pairs(l2p *[]ftl.MapPair) {
	n := len(*l2p)
	if c.count("L2P mapping", &n, maxSnapshotPairs); c.err != nil {
		return
	}
	prev := int64(0)
	if !c.dec {
		for _, e := range *l2p {
			c.out = binary.AppendUvarint(c.out, uint64(e.LPN-prev))
			c.out = binary.AppendUvarint(c.out, uint64(e.PPN))
			prev = e.LPN
		}
		return
	}
	out, in := make([]ftl.MapPair, 0, min(n, len(c.in)/2)), c.in
	for range n {
		delta, k := binary.Uvarint(in)
		if k <= 0 {
			c.fail(varintErr(k, len(in)))
			return
		}
		in = in[k:]
		ppn, k := binary.Uvarint(in)
		if k <= 0 {
			c.fail(varintErr(k, len(in)))
			return
		}
		in = in[k:]
		prev += int64(delta)
		out = append(out, ftl.MapPair{LPN: prev, PPN: int64(ppn)})
	}
	*l2p, c.in = out, in
}

func (c *stateCodec) counter(st *sim.TimedCounterState) {
	c.bool(&st.On)
	c.time(&st.Since)
	c.time(&st.Total)
}

func (c *stateCodec) timed(tc *sim.TimedCounter) {
	st := tc.State()
	if c.counter(&st); c.dec {
		tc.SetState(st)
	}
}

func (c *stateCodec) weighted(w *sim.WeightedSum) {
	st := w.State()
	c.f64(&st.Value)
	c.time(&st.Since)
	c.f64(&st.Sum)
	c.time(&st.Start)
	if c.bool(&st.Began); c.dec {
		w.SetState(st)
	}
}

func (c *stateCodec) clock(k *sim.EngineClock) {
	c.time(&k.Now)
	c.uvarint(&k.Seq)
	c.uvarint(&k.Fired)
}

// Decode bounds: generous multiples of anything a real configuration
// produces, small enough that corrupt counts fail fast.
const (
	maxSnapshotPlanes  = 1 << 24
	maxSnapshotBlocks  = 1 << 24
	maxSnapshotPairs   = 1 << 32
	maxSnapshotSamples = 1 << 28
	maxSnapshotSeries  = 1 << 28
	maxSnapshotChips   = 1 << 20
	maxSnapshotChans   = 1 << 16
)

// code walks the payload layout, encoding or decoding every field.
func (st *DeviceState) code(c *stateCodec) {
	// Engine clock, then a channel-clock count written as zero: the slot
	// held per-channel clocks in earlier builds, which the host clock
	// subsumes, so any a file carries are read and discarded.
	c.clock(&st.Engine)
	if now := st.Engine.Now; c.dec && (now < 0 || now > sim.Horizon) {
		c.fail(fmt.Errorf("engine clock %d ns outside [0, %d]", int64(now), int64(sim.Horizon)))
	}
	var clocks int
	c.count("channel clock", &clocks, maxSnapshotChans)
	for range clocks {
		var old sim.EngineClock
		c.clock(&old)
	}

	// Device-level queue.
	c.varint(&st.Queue.Admitted)
	c.varint(&st.Queue.Released)
	c.counter(&st.Queue.Full)

	// Accounting.
	c.f64(&st.BusyIntegral)
	c.time(&st.SysBusyTime)
	c.time(&st.LastAccount)
	c.varint(&st.EmergencyGCs)
	c.varint(&st.StaleFixes)
	c.varint(&st.FailedIOs)
	c.varint(&st.BytesRead)
	c.varint(&st.BytesWritten)
	c.varint(&st.IOsDone)
	c.time(&st.LastCompletion)

	// Latency histogram: its bucket counters or its exact samples.
	h := &st.Latency
	c.varint(&h.Count)
	c.f64(&h.Sum)
	c.f64(&h.SumSq)
	c.f64(&h.Min)
	c.f64(&h.Max)
	c.varintInt(&h.Cap)
	bucketed := h.Buckets != nil
	if c.bool(&bucketed); bucketed {
		for i := range codeLen(c, "histogram bucket", &h.Buckets, maxSnapshotSamples) {
			c.uvarint(&h.Buckets[i])
		}
	} else {
		for i := range codeLen(c, "latency sample", &h.Samples, maxSnapshotSamples) {
			c.f64(&h.Samples[i])
		}
	}

	// Series.
	for i := range codeLen(c, "series point", &st.Series, maxSnapshotSeries) {
		p := &st.Series[i]
		c.varint(&p.Index)
		c.time(&p.Arrival)
		c.time(&p.Latency)
	}

	// Chips.
	for i := range codeLen(c, "chip", &st.Chips, maxSnapshotChips) {
		ch := &st.Chips[i]
		cs := &ch.Stats
		c.timed(&cs.CellActive)
		c.timed(&cs.BusActive)
		c.timed(&cs.BusyAll)
		c.time(&cs.BusWait)
		c.weighted(&cs.PlaneUse)
		c.varint(&cs.Txns)
		for k := range cs.TxnsByClass {
			c.varint(&cs.TxnsByClass[k])
		}
		for k := range cs.ReqsByClass {
			c.varint(&cs.ReqsByClass[k])
		}
		c.varint(&cs.Requests)
		c.varint(&cs.ReadRetries)
		c.varint(&cs.ReadUncorrectable)
		c.varint(&cs.ProgramFails)
		c.varint(&cs.EraseFails)
		if c.bool(&ch.HasFRNG); ch.HasFRNG {
			c.u64(&ch.FRNG)
		}
	}

	// FTL: the L2P map, then the rest of its state.
	f := &st.FTL
	c.pairs(&f.L2P)
	// A negative write cursor would index the stripe table below zero.
	if c.varint(&f.Cursor); c.dec && f.Cursor < 0 {
		c.fail(fmt.Errorf("FTL write cursor %d is negative", f.Cursor))
	}
	var reserved uint64 // a former FTL generator state: zero, ignored on read
	c.u64(&reserved)
	for i := range codeLen(c, "plane", &f.Planes, maxSnapshotPlanes) {
		ps := &f.Planes[i]
		for b := range codeLen(c, "block", &ps.Blocks, maxSnapshotBlocks) {
			blk := &ps.Blocks[b]
			c.uvarintInt(&blk.Written)
			c.uvarintInt(&blk.Erases)
			var flags uint64
			if blk.Full {
				flags |= 1
			}
			if blk.Bad {
				flags |= 2
			}
			if c.uvarint(&flags); c.dec {
				if flags > 3 {
					c.fail(fmt.Errorf("invalid block flags 0x%x", flags))
				}
				blk.Full, blk.Bad = flags&1 != 0, flags&2 != 0
			}
		}
		for k := range codeLen(c, "free-list entry", &ps.Free, maxSnapshotBlocks) {
			c.uvarintInt(&ps.Free[k])
		}
		for k := range codeLen(c, "spare-pool entry", &ps.Spare, maxSnapshotBlocks) {
			c.uvarintInt(&ps.Spare[k])
		}
		c.varintInt(&ps.Active)
	}
	c.varint(&f.HostWrites)
	c.varint(&f.GCWrites)
	c.varint(&f.GCReads)
	c.varint(&f.GCErases)
	c.varint(&f.GCRuns)
	c.varint(&f.Invalidated)
	// Two version-1 slots readers discard: a bad-block count, which
	// equals the retired count, and a wear-leveling count, which is zero.
	badBlocks, wearLevels := f.RetiredBlocks, int64(0)
	c.varint(&badBlocks)
	c.varint(&wearLevels)
	c.varint(&f.RetiredBlocks)
	c.varint(&f.SparesUsed)
	c.bool(&f.Degraded)
}

// sizeHint returns about how many bytes st encodes to: the L2P pairs
// exactly, as they make up nearly all of an aged drive's payload, and a
// per-element bound on the rest.
func (st *DeviceState) sizeHint() int {
	n := 256 + 160*len(st.Chips) + 8*len(st.Latency.Samples) + 3*len(st.Latency.Buckets) + 30*len(st.Series)
	prev := int64(0)
	for _, e := range st.FTL.L2P {
		n += uvarintLen(uint64(e.LPN-prev)) + uvarintLen(uint64(e.PPN))
		prev = e.LPN
	}
	for i := range st.FTL.Planes {
		ps := &st.FTL.Planes[i]
		n += 8 + 12*len(ps.Blocks) + 3*(len(ps.Free)+len(ps.Spare))
	}
	return n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Append appends the state's binary payload to b, growing b once to
// about the payload's size first.
func (st *DeviceState) Append(b []byte) []byte {
	c := &stateCodec{out: slices.Grow(b, st.sizeHint())}
	st.code(c)
	return c.out
}

// DecodeDeviceState parses a binary payload written by Append. Every
// length is bounds-checked; a malformed payload yields a descriptive
// error and no partially-populated state escapes to callers. The state
// keeps no reference to payload.
func DecodeDeviceState(payload []byte) (*DeviceState, error) {
	c := &stateCodec{in: payload, dec: true}
	st := &DeviceState{}
	if st.code(c); c.err != nil {
		return nil, fmt.Errorf("ssd: malformed snapshot payload: %w", c.err)
	}
	return st, nil
}
