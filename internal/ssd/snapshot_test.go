package ssd

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sprinkler/internal/core"
	"sprinkler/internal/ftl"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// gcConfig shrinks blocks and clips the logical space so preconditioning
// produces GC pressure and the captured state is non-trivial.
func gcConfig() Config {
	cfg := smallConfig()
	cfg.Geo.BlocksPerPlane = 24
	cfg.LogicalPages = cfg.Geo.TotalPages() * 85 / 100
	return cfg
}

// loadState hydrates d from st the way the public snapshot path does:
// it builds st's FTL image on cfg, the configuration st was captured
// under, and loads st with it.
func loadState(cfg Config, d *Device, st *DeviceState) error {
	img, err := NewFTLImage(cfg, st)
	if err != nil {
		return err
	}
	return d.LoadState(st, img)
}

// TestCaptureStateRefusesMidRun pins the quiescence gate: a device with
// inflight I/O or pending events cannot be checkpointed.
func TestCaptureStateRefusesMidRun(t *testing.T) {
	d, err := New(gcConfig(), core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	for _, io := range seqIOs(40, 8, req.Write) {
		d.Submit(io)
	}
	d.Advance(d.Now() + 1) // far too short to drain anything
	if d.Inflight() == 0 {
		t.Fatal("test premise broken: no I/O in flight after a 1ns window")
	}
	if _, err := d.CaptureState(); err == nil {
		t.Fatal("mid-run capture did not error")
	} else if !strings.Contains(err.Error(), "checkpoint with") {
		t.Fatalf("mid-run capture error not descriptive: %v", err)
	}
	// Draining restores quiescence and the capture succeeds.
	if _, err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CaptureState(); err != nil {
		t.Fatalf("capture after drain: %v", err)
	}
}

// TestDeviceStateCodecRoundTrip pins the binary codec: capture, encode,
// decode, load into a fresh device, re-capture — the two encodings must
// be byte-identical, and the hydrated FTL must satisfy its invariants.
func TestDeviceStateCodecRoundTrip(t *testing.T) {
	cfg := gcConfig()
	d, err := New(cfg, core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	d.Precondition(0.9, 0.5, 17)
	st, err := d.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	buf := st.Append(nil)
	decoded, err := DecodeDeviceState(buf)
	if err != nil {
		t.Fatal(err)
	}

	d2, err := New(cfg, core.NewSPK2()) // scheduler independence
	if err != nil {
		t.Fatal(err)
	}
	if err := loadState(cfg, d2, decoded); err != nil {
		t.Fatal(err)
	}
	if err := d2.FTL().CheckInvariants(); err != nil {
		t.Fatalf("hydrated FTL violates invariants: %v", err)
	}
	st2, err := d2.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	buf2 := st2.Append(nil)
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("re-captured state differs from the original (%d vs %d bytes)", len(buf), len(buf2))
	}
}

// TestLoadStateRejectsShapeMismatch pins the structural validation: a
// state captured on one geometry cannot hydrate another.
func TestLoadStateRejectsShapeMismatch(t *testing.T) {
	d, err := New(gcConfig(), core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	d.Precondition(0.6, 0.2, 5)
	st, err := d.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	bigger := gcConfig()
	bigger.Geo.ChipsPerChan *= 2
	db, err := New(bigger, core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	if err := loadState(gcConfig(), db, st); err == nil {
		t.Error("geometry mismatch did not error")
	}
	if _, err := NewFTLImage(bigger, st); err == nil {
		t.Error("an image for a mismatched geometry was built")
	}
}

// TestDecodeRejectsCountBeyondPayload pins that a length field longer
// than the unread payload is refused before anything is allocated for
// it: a few corrupt bytes must not ask for a multi-gigabyte slice.
func TestDecodeRejectsCountBeyondPayload(t *testing.T) {
	payload := (&DeviceState{}).Append(nil)
	// The payload opens with the engine clock (three varints, here all
	// zero) and the channel-clock count; claim 60000 clocks.
	corrupt := append([]byte{0, 0, 0, 0xE0, 0xD4, 0x03}, payload[4:]...)
	_, err := DecodeDeviceState(corrupt)
	if err == nil || !strings.Contains(err.Error(), "unread payload bytes") {
		t.Fatalf("oversized count: err = %v, want an unread-bytes error", err)
	}
}

// TestEngineClockRestore pins that hydration restores the simulation
// clock: time continues from the captured instant, not from zero.
func TestEngineClockRestore(t *testing.T) {
	d, err := New(gcConfig(), core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	for _, io := range seqIOs(30, 4, req.Write) {
		d.Submit(io)
	}
	if _, err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Now() == 0 {
		t.Fatal("test premise broken: clock still zero after a run")
	}
	st, err := d.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(gcConfig(), core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	if err := loadState(gcConfig(), d2, st); err != nil {
		t.Fatal(err)
	}
	if got, want := d2.Now(), d.Now(); got != want {
		t.Fatalf("restored clock %v, want %v", got, want)
	}
	if got := d2.Now(); got == sim.Time(0) {
		t.Fatal("restored clock is zero")
	}
}

// fieldOffset returns the payload offset of the first field edit
// changes: the first byte at which the encodings of base and of base
// after edit differ.
func fieldOffset(t *testing.T, base DeviceState, edit func(*DeviceState)) int {
	t.Helper()
	changed := base
	edit(&changed)
	a, b := base.Append(nil), changed.Append(nil)
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	t.Fatal("fieldOffset: the edit changed no byte")
	return 0
}

// TestDecodeRejectsMalformedFields pins the codec's error for each way a
// field can be cut or garbled, in the words binary.ReadUvarint and an
// io.ByteReader give reading the same bytes one at a time: a varint cut
// short, a varint past 64 bits (ten continuing bytes overflow there,
// though binary.Uvarint calls them too short), a fixed-width field cut
// short and a boolean byte above 1.
func TestDecodeRejectsMalformedFields(t *testing.T) {
	base := DeviceState{Chips: []ChipState{{}}}
	payload := base.Append(nil)
	f64At := fieldOffset(t, base, func(st *DeviceState) { st.BusyIntegral = 1 })
	boolAt := fieldOffset(t, base, func(st *DeviceState) { st.Queue.Full.On = true })
	ff := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "payload: EOF"},
		{"varint cut short", []byte{0x80}, "payload: unexpected EOF"},
		{"varint of ten continuing bytes", ff(10), "payload: binary: varint overflows a 64-bit integer"},
		{"varint past ten bytes", ff(11), "payload: binary: varint overflows a 64-bit integer"},
		{"varint with a tenth byte above 1", append(ff(9), 0x02), "payload: binary: varint overflows a 64-bit integer"},
		{"u64 cut short", payload[:f64At+3], "payload: EOF"},
		{"boolean byte 2", append(append(slices.Clone(payload[:boolAt]), 2), payload[boolAt+1:]...), "payload: invalid boolean byte 0x02"},
		{"boolean cut short", payload[:boolAt], "payload: EOF"},
	} {
		_, err := DecodeDeviceState(tc.in)
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one ending %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeDeviceState(payload); err != nil {
		t.Fatalf("the intact payload: %v", err)
	}
}

// TestDecodeHostileL2PCountAllocatesWithinInput: an L2P count that the
// unread bytes allow but the pairs do not fill (here zero bytes, which
// decode as two-byte pairs until the payload runs out) must fail with a
// descriptive error having allocated no more than the input could hold:
// 16-byte pairs for at most half the unread bytes.
func TestDecodeHostileL2PCountAllocatesWithinInput(t *testing.T) {
	var base DeviceState
	at := fieldOffset(t, base, func(st *DeviceState) { st.FTL.L2P = []ftl.MapPair{{LPN: 1, PPN: 1}} })
	const filler = 1 << 20
	in := binary.AppendUvarint(slices.Clone(base.Append(nil)[:at]), filler)
	in = append(in, make([]byte, filler)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeDeviceState(in)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "malformed snapshot payload") {
		t.Fatalf("hostile L2P count: err = %v", err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(in)+1<<16); got > limit {
		t.Fatalf("hostile L2P count allocated %d bytes for a %d-byte payload, limit %d", got, len(in), limit)
	}
}

// agedWriteConfig is the aged-write benchmark's drive: 64 chips of 2
// dies × 4 planes, 64 blocks of 128 pages per plane, and a logical space
// of 80% of the pages.
func agedWriteConfig() Config {
	cfg := DefaultConfig()
	cfg.Geo.BlocksPerPlane = 64
	cfg.LogicalPages = cfg.Geo.TotalPages() * 8 / 10
	return cfg
}

// agedState is agedWriteConfig's drive aged the way the aged-write
// benchmark ages it, captured once for the codec benchmarks.
var agedState = sync.OnceValues(func() (*DeviceState, error) {
	d, err := New(agedWriteConfig(), core.NewSPK3())
	if err != nil {
		return nil, err
	}
	d.Precondition(0.9, 0.3, 1)
	return d.CaptureState()
})

// BenchmarkPrecondition prices the aging phase alone: the fill and churn
// of Precondition on agedWriteConfig's drive, each on a freshly built
// device whose construction is not timed.
func BenchmarkPrecondition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := New(agedWriteConfig(), core.NewSPK3())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d.Precondition(0.9, 0.3, 1)
	}
}

// BenchmarkSnapshotEncode prices encoding one aged drive's state into a
// snapshot payload (3.0M L2P pairs).
func BenchmarkSnapshotEncode(b *testing.B) {
	st, err := agedState()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(st.Append(nil))))
	}
}

// BenchmarkSnapshotDecode prices decoding that payload back into a
// DeviceState.
func BenchmarkSnapshotDecode(b *testing.B) {
	st, err := agedState()
	if err != nil {
		b.Fatal(err)
	}
	payload := st.Append(nil)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDeviceState(payload); err != nil {
			b.Fatal(err)
		}
	}
}
