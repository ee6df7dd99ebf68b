package ssd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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
// behind metrics.ChipSample and the fault-stream generator position.
type ChipState struct {
	CellActive sim.TimedCounterState
	BusActive  sim.TimedCounterState
	BusyAll    sim.TimedCounterState
	BusWait    sim.Time
	PlaneUse   sim.WeightedSumState

	Txns        int64
	TxnsByClass [4]int64
	ReqsByClass [4]int64
	Requests    int64

	ReadRetries       int64
	ReadUncorrectable int64
	ProgramFails      int64
	EraseFails        int64

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
	if d.composing || d.composeHead < len(d.composeQ) {
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
			cs := chip.Stats()
			out := ChipState{
				CellActive:        cs.CellActive.State(),
				BusActive:         cs.BusActive.State(),
				BusyAll:           cs.BusyAll.State(),
				BusWait:           cs.BusWait,
				PlaneUse:          cs.PlaneUse.State(),
				Txns:              cs.Txns,
				TxnsByClass:       cs.TxnsByClass,
				ReqsByClass:       cs.ReqsByClass,
				Requests:          cs.Requests,
				ReadRetries:       cs.ReadRetries,
				ReadUncorrectable: cs.ReadUncorrectable,
				ProgramFails:      cs.ProgramFails,
				EraseFails:        cs.EraseFails,
			}
			out.FRNG, out.HasFRNG = chip.FaultRNGState()
			st.Chips = append(st.Chips, out)
		}
	}
	return st, nil
}

// LoadState rehydrates a freshly built (or Reset) device from a captured
// state. The device's configuration must be the one the state was
// captured under — the public snapshot format embeds the config and
// rebuilds the device from it, so a mismatch here means a corrupted or
// hand-altered snapshot and is reported as an error. Validation is
// complete before any part of the state is applied only at the FTL layer
// (which verifies its own invariants); on error the device is in an
// unspecified state and must be discarded, never run.
func (d *Device) LoadState(st *DeviceState) error {
	if err := st.CheckShape(d.cfg); err != nil {
		return err
	}
	if err := d.fl.RestoreState(st.FTL); err != nil {
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
			if in.HasFRNG {
				chip.SetFaultRNGState(in.FRNG)
			}
			cs := chip.Stats()
			cs.CellActive.SetState(in.CellActive)
			cs.BusActive.SetState(in.BusActive)
			cs.BusyAll.SetState(in.BusyAll)
			cs.BusWait = in.BusWait
			cs.PlaneUse.SetState(in.PlaneUse)
			cs.Txns = in.Txns
			cs.TxnsByClass = in.TxnsByClass
			cs.ReqsByClass = in.ReqsByClass
			cs.Requests = in.Requests
			cs.ReadRetries = in.ReadRetries
			cs.ReadUncorrectable = in.ReadUncorrectable
			cs.ProgramFails = in.ProgramFails
			cs.EraseFails = in.EraseFails
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

type stateWriter struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (sw *stateWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(p)
}

func (sw *stateWriter) uvarint(v uint64) { sw.write(sw.buf[:binary.PutUvarint(sw.buf[:], v)]) }
func (sw *stateWriter) varint(v int64)   { sw.write(sw.buf[:binary.PutVarint(sw.buf[:], v)]) }

func (sw *stateWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(sw.buf[:8], v)
	sw.write(sw.buf[:8])
}

func (sw *stateWriter) f64(v float64) { sw.u64(math.Float64bits(v)) }

func (sw *stateWriter) bool(v bool) {
	if v {
		sw.write([]byte{1})
	} else {
		sw.write([]byte{0})
	}
}

func (sw *stateWriter) timedCounter(st sim.TimedCounterState) {
	sw.bool(st.On)
	sw.varint(int64(st.Since))
	sw.varint(int64(st.Total))
}

func (sw *stateWriter) weightedSum(st sim.WeightedSumState) {
	sw.f64(st.Value)
	sw.varint(int64(st.Since))
	sw.f64(st.Sum)
	sw.varint(int64(st.Start))
	sw.bool(st.Began)
}

func (sw *stateWriter) clock(c sim.EngineClock) {
	sw.varint(int64(c.Now))
	sw.uvarint(c.Seq)
	sw.uvarint(c.Fired)
}

type stateReader struct {
	r    io.ByteReader
	left interface{ Len() int } // unread input length; nil when unknown
	buf  [8]byte
	err  error
}

func newStateReader(r io.Reader) *stateReader {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReader(r)
	}
	left, _ := r.(interface{ Len() int })
	return &stateReader{r: br, left: left}
}

func (sr *stateReader) fail(err error) {
	if sr.err == nil && err != nil {
		sr.err = err
	}
}

func (sr *stateReader) uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(sr.r)
	sr.fail(err)
	return v
}

func (sr *stateReader) varint() int64 {
	if sr.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(sr.r)
	sr.fail(err)
	return v
}

func (sr *stateReader) u64() uint64 {
	if sr.err != nil {
		return 0
	}
	for i := 0; i < 8; i++ {
		b, err := sr.r.ReadByte()
		if err != nil {
			sr.fail(err)
			return 0
		}
		sr.buf[i] = b
	}
	return binary.LittleEndian.Uint64(sr.buf[:8])
}

func (sr *stateReader) f64() float64 { return math.Float64frombits(sr.u64()) }

func (sr *stateReader) bool() bool {
	if sr.err != nil {
		return false
	}
	b, err := sr.r.ReadByte()
	if err != nil {
		sr.fail(err)
		return false
	}
	if b > 1 {
		sr.fail(fmt.Errorf("invalid boolean byte 0x%02x", b))
	}
	return b == 1
}

// count reads a uvarint length field bounded by max and, when the input
// length is known, by the unread bytes (every element encodes to at least
// one byte); the bounds turn a corrupt length into a descriptive error
// instead of a huge allocation.
func (sr *stateReader) count(what string, max uint64) int {
	n := sr.uvarint()
	if n > max && sr.err == nil {
		sr.fail(fmt.Errorf("%s count %d exceeds limit %d", what, n, max))
	}
	if sr.left != nil && n > uint64(sr.left.Len()) && sr.err == nil {
		sr.fail(fmt.Errorf("%s count %d exceeds the %d unread payload bytes", what, n, sr.left.Len()))
	}
	if sr.err != nil {
		return 0
	}
	return int(n)
}

func (sr *stateReader) timedCounter() sim.TimedCounterState {
	return sim.TimedCounterState{
		On:    sr.bool(),
		Since: sim.Time(sr.varint()),
		Total: sim.Time(sr.varint()),
	}
}

func (sr *stateReader) weightedSum() sim.WeightedSumState {
	return sim.WeightedSumState{
		Value: sr.f64(),
		Since: sim.Time(sr.varint()),
		Sum:   sr.f64(),
		Start: sim.Time(sr.varint()),
		Began: sr.bool(),
	}
}

func (sr *stateReader) clock() sim.EngineClock {
	return sim.EngineClock{
		Now:   sim.Time(sr.varint()),
		Seq:   sr.uvarint(),
		Fired: sr.uvarint(),
	}
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

// Encode writes the state in the versioned binary payload layout.
func (st *DeviceState) Encode(w io.Writer) error {
	sw := &stateWriter{w: w}

	// Engine clock, then a channel-clock count that is always zero: the
	// slot held per-channel clocks in earlier builds.
	sw.clock(st.Engine)
	sw.uvarint(0)

	// Device-level queue.
	sw.varint(st.Queue.Admitted)
	sw.varint(st.Queue.Released)
	sw.timedCounter(st.Queue.Full)

	// Accounting.
	sw.f64(st.BusyIntegral)
	sw.varint(int64(st.SysBusyTime))
	sw.varint(int64(st.LastAccount))
	sw.varint(st.EmergencyGCs)
	sw.varint(st.StaleFixes)
	sw.varint(st.FailedIOs)
	sw.varint(st.BytesRead)
	sw.varint(st.BytesWritten)
	sw.varint(st.IOsDone)
	sw.varint(int64(st.LastCompletion))

	// Latency histogram.
	sw.varint(st.Latency.Count)
	sw.f64(st.Latency.Sum)
	sw.f64(st.Latency.SumSq)
	sw.f64(st.Latency.Min)
	sw.f64(st.Latency.Max)
	sw.varint(int64(st.Latency.Cap))
	sw.bool(st.Latency.Buckets != nil)
	if st.Latency.Buckets != nil {
		sw.uvarint(uint64(len(st.Latency.Buckets)))
		for _, c := range st.Latency.Buckets {
			sw.uvarint(c)
		}
	} else {
		sw.uvarint(uint64(len(st.Latency.Samples)))
		for _, v := range st.Latency.Samples {
			sw.f64(v)
		}
	}

	// Series.
	sw.uvarint(uint64(len(st.Series)))
	for _, p := range st.Series {
		sw.varint(p.Index)
		sw.varint(int64(p.Arrival))
		sw.varint(int64(p.Latency))
	}

	// Chips.
	sw.uvarint(uint64(len(st.Chips)))
	for i := range st.Chips {
		c := &st.Chips[i]
		sw.timedCounter(c.CellActive)
		sw.timedCounter(c.BusActive)
		sw.timedCounter(c.BusyAll)
		sw.varint(int64(c.BusWait))
		sw.weightedSum(c.PlaneUse)
		sw.varint(c.Txns)
		for _, v := range c.TxnsByClass {
			sw.varint(v)
		}
		for _, v := range c.ReqsByClass {
			sw.varint(v)
		}
		sw.varint(c.Requests)
		sw.varint(c.ReadRetries)
		sw.varint(c.ReadUncorrectable)
		sw.varint(c.ProgramFails)
		sw.varint(c.EraseFails)
		sw.bool(c.HasFRNG)
		if c.HasFRNG {
			sw.u64(c.FRNG)
		}
	}

	// FTL: the L2P map delta-coded over its sorted LPNs.
	sw.uvarint(uint64(len(st.FTL.L2P)))
	prev := int64(0)
	for _, e := range st.FTL.L2P {
		sw.uvarint(uint64(e.LPN - prev))
		prev = e.LPN
		sw.uvarint(uint64(e.PPN))
	}
	sw.varint(st.FTL.Cursor)
	sw.u64(0) // reserved (a former FTL generator state): zero, ignored on read
	sw.uvarint(uint64(len(st.FTL.Planes)))
	for i := range st.FTL.Planes {
		ps := &st.FTL.Planes[i]
		sw.uvarint(uint64(len(ps.Blocks)))
		for _, b := range ps.Blocks {
			sw.uvarint(uint64(b.Written))
			sw.uvarint(uint64(b.Erases))
			var flags byte
			if b.Full {
				flags |= 1
			}
			if b.Bad {
				flags |= 2
			}
			sw.write([]byte{flags})
		}
		sw.uvarint(uint64(len(ps.Free)))
		for _, b := range ps.Free {
			sw.uvarint(uint64(b))
		}
		sw.uvarint(uint64(len(ps.Spare)))
		for _, b := range ps.Spare {
			sw.uvarint(uint64(b))
		}
		sw.varint(int64(ps.Active))
	}
	sw.varint(st.FTL.HostWrites)
	sw.varint(st.FTL.GCWrites)
	sw.varint(st.FTL.GCReads)
	sw.varint(st.FTL.GCErases)
	sw.varint(st.FTL.GCRuns)
	sw.varint(st.FTL.Invalidated)
	// Two version-1 slots readers ignore: a bad-block count, which equals
	// the retired count, and a wear-leveling count, which is zero.
	sw.varint(st.FTL.RetiredBlocks)
	sw.varint(0)
	sw.varint(st.FTL.RetiredBlocks)
	sw.varint(st.FTL.SparesUsed)
	sw.bool(st.FTL.Degraded)

	return sw.err
}

// DecodeDeviceState parses a binary payload written by Encode. Every
// length is bounds-checked; a malformed payload yields a descriptive
// error and no partially-populated state escapes to callers.
func DecodeDeviceState(r io.Reader) (*DeviceState, error) {
	sr := newStateReader(r)
	st := &DeviceState{}

	st.Engine = sr.clock()
	if now := st.Engine.Now; now < 0 || now > sim.Horizon {
		sr.fail(fmt.Errorf("engine clock %d ns outside [0, %d]", int64(now), int64(sim.Horizon)))
	}
	// Earlier builds could record per-channel clocks here; the host clock
	// subsumes them, so they are read and discarded.
	for n := sr.count("channel clock", maxSnapshotChans); n > 0; n-- {
		sr.clock()
	}

	st.Queue.Admitted = sr.varint()
	st.Queue.Released = sr.varint()
	st.Queue.Full = sr.timedCounter()

	st.BusyIntegral = sr.f64()
	st.SysBusyTime = sim.Time(sr.varint())
	st.LastAccount = sim.Time(sr.varint())
	st.EmergencyGCs = sr.varint()
	st.StaleFixes = sr.varint()
	st.FailedIOs = sr.varint()
	st.BytesRead = sr.varint()
	st.BytesWritten = sr.varint()
	st.IOsDone = sr.varint()
	st.LastCompletion = sim.Time(sr.varint())

	st.Latency.Count = sr.varint()
	st.Latency.Sum = sr.f64()
	st.Latency.SumSq = sr.f64()
	st.Latency.Min = sr.f64()
	st.Latency.Max = sr.f64()
	st.Latency.Cap = int(sr.varint())
	if sr.bool() {
		n := sr.count("histogram bucket", maxSnapshotSamples)
		st.Latency.Buckets = make([]uint64, n)
		for i := range st.Latency.Buckets {
			st.Latency.Buckets[i] = sr.uvarint()
		}
	} else if n := sr.count("latency sample", maxSnapshotSamples); n > 0 {
		st.Latency.Samples = make([]float64, n)
		for i := range st.Latency.Samples {
			st.Latency.Samples[i] = sr.f64()
		}
	}

	if n := sr.count("series point", maxSnapshotSeries); n > 0 {
		st.Series = make([]metrics.SeriesPoint, n)
		for i := range st.Series {
			st.Series[i].Index = sr.varint()
			st.Series[i].Arrival = sim.Time(sr.varint())
			st.Series[i].Latency = sim.Time(sr.varint())
		}
	}

	nChips := sr.count("chip", maxSnapshotChips)
	st.Chips = make([]ChipState, nChips)
	for i := range st.Chips {
		c := &st.Chips[i]
		c.CellActive = sr.timedCounter()
		c.BusActive = sr.timedCounter()
		c.BusyAll = sr.timedCounter()
		c.BusWait = sim.Time(sr.varint())
		c.PlaneUse = sr.weightedSum()
		c.Txns = sr.varint()
		for k := range c.TxnsByClass {
			c.TxnsByClass[k] = sr.varint()
		}
		for k := range c.ReqsByClass {
			c.ReqsByClass[k] = sr.varint()
		}
		c.Requests = sr.varint()
		c.ReadRetries = sr.varint()
		c.ReadUncorrectable = sr.varint()
		c.ProgramFails = sr.varint()
		c.EraseFails = sr.varint()
		c.HasFRNG = sr.bool()
		if c.HasFRNG {
			c.FRNG = sr.u64()
		}
		if sr.err != nil {
			break
		}
	}

	nPairs := sr.count("L2P mapping", maxSnapshotPairs)
	st.FTL.L2P = make([]ftl.MapPair, 0, min(nPairs, 1<<20))
	prev := int64(0)
	for i := 0; i < nPairs && sr.err == nil; i++ {
		prev += int64(sr.uvarint())
		st.FTL.L2P = append(st.FTL.L2P, ftl.MapPair{LPN: prev, PPN: int64(sr.uvarint())})
	}
	st.FTL.Cursor = sr.varint()
	sr.u64() // reserved slot
	nPlanes := sr.count("plane", maxSnapshotPlanes)
	st.FTL.Planes = make([]ftl.PlaneState2, nPlanes)
	for i := 0; i < nPlanes && sr.err == nil; i++ {
		ps := &st.FTL.Planes[i]
		nBlocks := sr.count("block", maxSnapshotBlocks)
		ps.Blocks = make([]ftl.BlockState, nBlocks)
		for b := range ps.Blocks {
			ps.Blocks[b].Written = int(sr.uvarint())
			ps.Blocks[b].Erases = int(sr.uvarint())
			flags := byte(0)
			if sr.err == nil {
				if v := sr.uvarint(); v > 3 {
					sr.fail(fmt.Errorf("invalid block flags 0x%x", v))
				} else {
					flags = byte(v)
				}
			}
			ps.Blocks[b].Full = flags&1 != 0
			ps.Blocks[b].Bad = flags&2 != 0
		}
		nFree := sr.count("free-list entry", maxSnapshotBlocks)
		ps.Free = make([]int, nFree)
		for k := range ps.Free {
			ps.Free[k] = int(sr.uvarint())
		}
		nSpare := sr.count("spare-pool entry", maxSnapshotBlocks)
		ps.Spare = make([]int, nSpare)
		for k := range ps.Spare {
			ps.Spare[k] = int(sr.uvarint())
		}
		ps.Active = int(sr.varint())
	}
	st.FTL.HostWrites = sr.varint()
	st.FTL.GCWrites = sr.varint()
	st.FTL.GCReads = sr.varint()
	st.FTL.GCErases = sr.varint()
	st.FTL.GCRuns = sr.varint()
	st.FTL.Invalidated = sr.varint()
	sr.varint() // the bad-block and wear-leveling slots
	sr.varint()
	st.FTL.RetiredBlocks = sr.varint()
	st.FTL.SparesUsed = sr.varint()
	st.FTL.Degraded = sr.bool()

	if sr.err != nil {
		return nil, fmt.Errorf("ssd: malformed snapshot payload: %w", sr.err)
	}
	return st, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
