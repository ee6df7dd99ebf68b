package ssd

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sprinkler/internal/core"
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
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeDeviceState(bytes.NewReader(buf.Bytes()))
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
	var buf2 bytes.Buffer
	if err := st2.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-captured state differs from the original (%d vs %d bytes)", buf.Len(), buf2.Len())
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
	var buf bytes.Buffer
	if err := (&DeviceState{}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	// The payload opens with the engine clock (three varints, here all
	// zero) and the channel-clock count; claim 60000 clocks.
	corrupt := append([]byte{0, 0, 0, 0xE0, 0xD4, 0x03}, payload[4:]...)
	_, err := DecodeDeviceState(bytes.NewReader(corrupt))
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
