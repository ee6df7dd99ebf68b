package sprinkler_test

// Warm-state snapshot tests: the restore-vs-replay parity contract
// (a device hydrated from a checkpoint is byte-identical in behaviour to
// one that replayed the preconditioning), the file-format robustness
// guarantees (corrupt, truncated, version-skewed and oversized inputs are
// rejected with descriptive errors and nothing is partially hydrated),
// and the plumbing layers above the codec: DeviceArena registration,
// Grid/Runner sweep hydration, and Session opening.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sprinkler"
	"sprinkler/internal/ssd"
)

// agedConfig is the parity tests' platform: small enough to keep the
// matrix fast, with blocks shrunk and the logical space clipped the way
// the GC-stress path does, so preconditioning produces real GC pressure
// and the snapshot carries non-trivial FTL state.
func agedConfig(kind sprinkler.SchedulerKind) sprinkler.Config {
	cfg := sprinkler.Platform(8)
	cfg.Scheduler = kind
	cfg.BlocksPerPlane = 24
	cfg.PagesPerBlock = 32
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	return cfg
}

// checkpointOf preconditions a fresh device on cfg and returns its
// serialized warm state.
func checkpointOf(t *testing.T, cfg sprinkler.Config, fill, churn float64, seed uint64) []byte {
	t.Helper()
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.Precondition(fill, churn, seed)
	var buf bytes.Buffer
	if err := dev.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restore reads a snapshot from raw and builds a device from it.
func restore(raw []byte) (*sprinkler.Device, error) {
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return snap.NewDevice()
}

// runWorkload replays a deterministic workload and fingerprints the full
// Result.
func runWorkload(t *testing.T, dev *sprinkler.Device, workload string, n int, seed uint64) string {
	t.Helper()
	src, err := dev.Config().NewWorkloadSource(sprinkler.WorkloadSpec{Name: workload, Requests: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSnapshotRestoreReplayParity is the tentpole contract, randomized
// over schedulers and fault specs: a device restored from a checkpoint
// must produce a byte-identical Result to a device that replayed the same
// preconditioning. The par=N axis is the legacy ParallelChannels value the
// restored file records: par=0 restores the file as written, par=2 a copy
// re-framed the way earlier builds wrote it (the retired key plus two
// channel clocks), with GC off so pristine drives are covered too.
func TestSnapshotRestoreReplayParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	workloads := []string{"msnfs1", "cfs0", "proj2"}
	faultSpecs := []sprinkler.FaultSpec{
		{},
		{ReadFailProb: 0.01, ProgramFailProb: 0.005, EraseFailProb: 0.002,
			ReadRetryMax: 3, ReadRetryMult: 2, RewriteMax: 3, SpareBlockFrac: 0.1, Seed: 99},
	}
	for _, kind := range sprinkler.Schedulers() {
		for _, parallel := range []int{0, 2} {
			for fi, faults := range faultSpecs {
				kind, parallel, fi, faults := kind, parallel, fi, faults
				name := fmt.Sprintf("%s/par=%d/faults=%d", kind, parallel, fi)
				fill := 0.5 + rng.Float64()*0.4
				churn := rng.Float64() * 0.5
				preSeed := rng.Uint64()
				wl := workloads[rng.Intn(len(workloads))]
				runSeed := rng.Uint64()
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := agedConfig(kind)
					cfg.Faults = faults
					if parallel > 0 {
						cfg.DisableGC = true
						cfg.LogicalPages = 0
					}

					// Reference: replay the warm-up, then the workload.
					ref, err := sprinkler.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref.Precondition(fill, churn, preSeed)
					want := runWorkload(t, ref, wl, 300, runSeed)

					// Restored: the same warm-up through a checkpoint file.
					raw := checkpointOf(t, cfg, fill, churn, preSeed)
					if parallel > 0 {
						raw = legacyFrame(t, raw, fmt.Sprintf(`"ParallelChannels":%d`, parallel), 2)
					}
					dev, err := restore(raw)
					if err != nil {
						t.Fatal(err)
					}
					if got := runWorkload(t, dev, wl, 300, runSeed); got != want {
						t.Errorf("restored device diverged from replayed one:\n replay:  %s\n restore: %s", want, got)
					}
				})
			}
		}
	}
}

// TestSnapshotSchedulerOverride pins the CompatibleConfig contract: one
// snapshot hydrates a device per scheduler, each byte-identical to a
// device that replayed the warm-up under that scheduler.
func TestSnapshotSchedulerOverride(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.8, 0.3, 21)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range sprinkler.Schedulers() {
		cfg := base
		cfg.Scheduler = kind
		ref, err := sprinkler.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.Precondition(0.8, 0.3, 21)
		want := runWorkload(t, ref, "cfs4", 250, 5)

		dev, err := snap.NewDevice(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := runWorkload(t, dev, "cfs4", 250, 5); got != want {
			t.Errorf("%s: hydrated device diverged:\n replay:  %s\n restore: %s", kind, want, got)
		}
	}
}

// TestSnapshotConfigCompatibility pins which knobs may differ between
// capture and hydration (scheduler, series knobs) and
// that everything else is refused.
func TestSnapshotConfigCompatibility(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.7, 0.2, 3)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	allowed := []func(*sprinkler.Config){
		func(c *sprinkler.Config) { c.Scheduler = sprinkler.VAS },
		func(c *sprinkler.Config) { c.CollectSeries = true; c.SeriesWindow = 64 },
	}
	for i, mutate := range allowed {
		cfg := base
		mutate(&cfg)
		if !snap.CompatibleConfig(cfg) {
			t.Errorf("allowed mutation %d judged incompatible", i)
		}
		if _, err := snap.NewDevice(cfg); err != nil {
			t.Errorf("allowed mutation %d refused: %v", i, err)
		}
	}

	refused := []func(*sprinkler.Config){
		func(c *sprinkler.Config) { c.ChipsPerChan *= 2 },
		func(c *sprinkler.Config) { c.QueueDepth = 8 },
		func(c *sprinkler.Config) { c.MetricsSampleCap = 128 },
		func(c *sprinkler.Config) { c.Faults.ReadFailProb = 0.5 },
		func(c *sprinkler.Config) { c.LogicalPages = c.TotalPages() / 2 },
	}
	for i, mutate := range refused {
		cfg := base
		mutate(&cfg)
		if snap.CompatibleConfig(cfg) {
			t.Errorf("refused mutation %d judged compatible", i)
		}
		if _, err := snap.NewDevice(cfg); err == nil {
			t.Errorf("refused mutation %d hydrated without error", i)
		}
	}
}

// mutateSnapshot applies f to a copy of raw and recomputes the CRC
// trailer, producing a structurally corrupted but checksum-valid file.
func mutateSnapshot(raw []byte, f func([]byte) []byte) []byte {
	body := append([]byte(nil), raw[:len(raw)-4]...)
	body = f(body)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(body, crc[:]...)
}

// legacyFrame re-frames a snapshot file with extra keys appended to its
// config JSON and clocks channel clocks in its payload, each a copy of the
// engine clock — the shape earlier builds wrote when they recorded a
// per-channel kernel's worker count and clocks.
func legacyFrame(t testing.TB, raw []byte, extraKeys string, clocks int) []byte {
	t.Helper()
	const header = 12 // magic + version
	section := func(b []byte) (sec, rest []byte) {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			t.Fatal("legacyFrame: malformed section length")
		}
		return b[w : w+int(n)], b[w+int(n):]
	}
	cfgJSON, rest := section(raw[header : len(raw)-4])
	payload, _ := section(rest)

	cfg := append([]byte(nil), cfgJSON[:len(cfgJSON)-1]...)
	cfg = append(append(append(cfg, ','), extraKeys...), '}')

	// The payload opens with the engine clock (varint, uvarint, uvarint)
	// followed by a zero channel-clock count.
	off := 0
	for i := 0; i < 3; i++ {
		_, w := binary.Uvarint(payload[off:])
		off += w
	}
	if payload[off] != 0 {
		t.Fatalf("legacyFrame: channel-clock count %d, want 0", payload[off])
	}
	engine := payload[:off]
	body := append([]byte(nil), payload[:off]...)
	body = binary.AppendUvarint(body, uint64(clocks))
	for i := 0; i < clocks; i++ {
		body = append(body, engine...)
	}
	body = append(body, payload[off+1:]...)

	out := append([]byte(nil), raw[:header]...)
	out = binary.AppendUvarint(out, uint64(len(cfg)))
	out = append(out, cfg...)
	out = binary.AppendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// withEngineClock re-frames a snapshot file with its engine clock, the
// payload's first varint, set to now.
func withEngineClock(t testing.TB, raw []byte, now int64) []byte {
	t.Helper()
	const header = 12 // magic + version
	body := raw[header : len(raw)-4]
	n, w := binary.Uvarint(body)
	cfg, rest := body[:w+int(n)], body[w+int(n):]
	n, w = binary.Uvarint(rest)
	payload := rest[w : w+int(n)]
	_, cw := binary.Varint(payload)
	if cw <= 0 {
		t.Fatal("withEngineClock: malformed engine clock")
	}
	clocked := append(binary.AppendVarint(nil, now), payload[cw:]...)

	out := append(append([]byte(nil), raw[:header]...), cfg...)
	out = binary.AppendUvarint(out, uint64(len(clocked)))
	out = append(out, clocked...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestSnapshotLegacyParallelChannels pins that snapshot files from builds
// that still had the ParallelChannels knob keep loading: the key and the
// channel clocks those builds recorded are read and ignored, and the
// hydrated device runs exactly like one from the plain file. Unknown
// config keys are still refused.
func TestSnapshotLegacyParallelChannels(t *testing.T) {
	raw := checkpointOf(t, agedConfig(sprinkler.SPK3), 0.7, 0.3, 29)
	run := func(file []byte) string {
		t.Helper()
		dev, err := restore(file)
		if err != nil {
			t.Fatal(err)
		}
		return runWorkload(t, dev, "msnfs1", 250, 31)
	}
	legacy := legacyFrame(t, raw, `"ParallelChannels":4`, 2)
	if got, want := run(legacy), run(raw); got != want {
		t.Errorf("legacy file diverged from the plain one:\n plain:  %s\n legacy: %s", want, got)
	}

	_, err := sprinkler.ReadSnapshot(bytes.NewReader(legacyFrame(t, raw, `"NoSuchKnob":1`, 0)))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown config key: err = %v, want an unknown-field error", err)
	}
}

// TestSnapshotLegacyMaxBacklog pins that snapshot files from builds that
// still had the MaxBacklog knob keep loading: the key is read and
// ignored, and the hydrated device runs exactly like one from the plain
// file.
func TestSnapshotLegacyMaxBacklog(t *testing.T) {
	raw := checkpointOf(t, agedConfig(sprinkler.SPK2), 0.7, 0.3, 37)
	run := func(file []byte) string {
		t.Helper()
		snap, err := sprinkler.ReadSnapshot(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		dev, err := snap.NewDevice(snap.Config())
		if err != nil {
			t.Fatal(err)
		}
		return runWorkload(t, dev, "proj0", 250, 39)
	}
	legacy := legacyFrame(t, raw, `"MaxBacklog":4096`, 0)
	if got, want := run(legacy), run(raw); got != want {
		t.Errorf("legacy file diverged from the plain one:\n plain:  %s\n legacy: %s", want, got)
	}
}

// tinyCheckpoint is the warm state of a one-plane, eight-block drive with
// read faults armed.
func tinyCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	tiny := sprinkler.DefaultConfig()
	tiny.Channels, tiny.ChipsPerChan, tiny.DiesPerChip, tiny.PlanesPerDie = 1, 1, 1, 1
	tiny.BlocksPerPlane, tiny.PagesPerBlock = 8, 8
	tiny.Faults = sprinkler.FaultSpec{ReadFailProb: 0.1, Seed: 1}
	dev, err := sprinkler.New(tiny)
	if err != nil {
		tb.Fatal(err)
	}
	dev.Precondition(0.5, 0.5, 1)
	var buf bytes.Buffer
	if err := dev.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Config keys for page dimensions the payload does not bound: they size
// the validity bitmaps and byte counts, so 2^27 pages per block would
// allocate gigabytes and a 2^62-byte page overflows bandwidth arithmetic.
const (
	hugeBlocks = `"PagesPerBlock":134217728`
	hugePages  = `"PageSize":4611686018427387904`
)

// FuzzReadSnapshot feeds arbitrary files to ReadSnapshot. No input may
// panic, and every rejection must be a descriptive sprinkler: error. A
// file that loads must hydrate a device with its own Config. Each input
// is also tried with its CRC trailer recomputed, so mutations reach the
// config and payload decoders behind the checksum. Those edited files
// are hydrated too when they load: ReadSnapshot has already checked the
// payload's shape against the config, so hydration builds no device the
// payload does not account for. It may still reject FTL state that
// breaks an invariant, but only with a descriptive error. A snapshot
// that hydrates is hydrated twice — the first hydration builds the FTL
// image, the second only copies it — and both devices must checkpoint
// to the same bytes.
func FuzzReadSnapshot(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "warm_v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	// A one-plane drive keeps a seed small enough for the mutator to
	// explore; the fixture covers a realistically sized payload.
	small := tinyCheckpoint(f)
	f.Add(golden)
	f.Add(small)
	f.Add(legacyFrame(f, small, `"MaxBacklog":4096`, 0))
	f.Add(legacyFrame(f, small, hugeBlocks, 0))
	f.Add(legacyFrame(f, small, hugePages, 0))
	f.Fuzz(func(t *testing.T, file []byte) {
		read := func(file []byte) *sprinkler.DeviceSnapshot {
			snap, err := sprinkler.ReadSnapshot(bytes.NewReader(file))
			if err != nil && !strings.HasPrefix(err.Error(), "sprinkler: ") {
				t.Fatalf("undescriptive rejection: %v", err)
			}
			return snap
		}
		// hydrateTwice hydrates snap twice; a second device must
		// checkpoint like the first, and a failure must repeat.
		hydrateTwice := func(snap *sprinkler.DeviceSnapshot) error {
			var ckpt [2][]byte
			var errs [2]error
			for i := range ckpt {
				dev, err := snap.NewDevice(snap.Config())
				if errs[i] = err; err != nil {
					continue
				}
				var buf bytes.Buffer
				if err := dev.Checkpoint(&buf); err != nil {
					t.Fatalf("hydration %d does not checkpoint: %v", i+1, err)
				}
				ckpt[i] = buf.Bytes()
			}
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("hydrations disagree: %v, then %v", errs[0], errs[1])
			}
			if !bytes.Equal(ckpt[0], ckpt[1]) {
				t.Fatal("the second hydration checkpoints to other bytes than the first")
			}
			return errs[0]
		}
		if snap := read(file); snap != nil {
			if err := hydrateTwice(snap); err != nil {
				t.Fatalf("snapshot loads but does not hydrate with its own config: %v", err)
			}
		}
		if len(file) < 4 {
			return
		}
		if snap := read(mutateSnapshot(file, func(b []byte) []byte { return b })); snap != nil {
			if err := hydrateTwice(snap); err != nil && !strings.HasPrefix(err.Error(), "sprinkler: ") {
				t.Fatalf("undescriptive hydration failure: %v", err)
			}
		}
	})
}

// TestSnapshotRejectsDamage feeds every flavour of damaged file through
// ReadSnapshot and demands a descriptive error — never a snapshot to
// build a device from, never a panic.
func TestSnapshotRejectsDamage(t *testing.T) {
	raw := checkpointOf(t, agedConfig(sprinkler.SPK2), 0.6, 0.3, 7)

	// A file that captured a latency series, for the series-window case.
	seriesCfg := agedConfig(sprinkler.SPK2)
	seriesCfg.CollectSeries = true
	dev, err := sprinkler.New(seriesCfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = runWorkload(t, dev, "cfs0", 50, 3)
	var series bytes.Buffer
	if err := dev.Checkpoint(&series); err != nil {
		t.Fatal(err)
	}
	tiny := tinyCheckpoint(t)

	cases := []struct {
		name string
		in   []byte
		want string // substring of the error
	}{
		{"empty", nil, "truncated"},
		{"short", raw[:8], "truncated"},
		{"bad magic", append([]byte("NOTASNAP"), raw[8:]...), "bad magic"},
		{"truncated mid-payload", raw[:len(raw)/2], "checksum"},
		{"flipped payload byte", flipByte(raw, len(raw)/2), "checksum"},
		{"flipped trailer byte", flipByte(raw, len(raw)-1), "checksum"},
		{"future version", mutateSnapshot(raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], sprinkler.SnapshotVersion+1)
			return b
		}), "version"},
		{"trailing bytes", mutateSnapshot(raw, func(b []byte) []byte {
			return append(b, 0xDE, 0xAD)
		}), "trailing"},
		{"config length overruns", mutateSnapshot(raw, func(b []byte) []byte {
			// Replace everything after the version with a huge uvarint.
			return append(b[:12], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
		}), "exceeds"},
		{"payload garbage", mutateSnapshot(raw, func(b []byte) []byte {
			// Find the payload (after the config JSON) and zero its head:
			// the codec must reject it, not build a half-device.
			_, off := binary.Uvarint(b[12:])
			n, _ := binary.Uvarint(b[12:])
			payloadStart := 12 + off + int(n)
			for i := payloadStart + 2; i < payloadStart+10 && i < len(b); i++ {
				b[i] = 0xFF
			}
			return b
		}), "snapshot"},
		// Checksum-valid files whose config names a different device than
		// the payload describes (legacyFrame appends keys, and the last
		// value of a repeated key wins). One names 2^17 chips: it must be
		// refused before anything is built.
		{"config names more chips", legacyFrame(t, raw, `"ChipsPerChan":65536`, 0), "chips, config has"},
		{"config names more planes", legacyFrame(t, raw, `"DiesPerChip":4`, 0), "FTL planes"},
		{"config names more blocks", legacyFrame(t, raw, `"BlocksPerPlane":48`, 0), "blocks, config has"},
		{"config adds fault streams", legacyFrame(t, raw, `"Faults":{"readFailProb":0.1}`, 0), "fault stream"},
		{"config shrinks series window", legacyFrame(t, series.Bytes(), `"SeriesWindow":10`, 0), "series holds"},
		{"config names huge blocks", legacyFrame(t, tiny, hugeBlocks, 0), "PagesPerBlock"},
		{"config names huge pages", legacyFrame(t, tiny, hugePages, 0), "PageSize"},
		// A restored clock past the horizon would overflow the first
		// event scheduled after it; a negative one would run time back.
		{"engine clock past the horizon", withEngineClock(t, tiny, math.MaxInt64-10), "engine clock"},
		{"negative engine clock", withEngineClock(t, tiny, -1000), "engine clock"},
		// A negative write cursor once hydrated and then panicked the
		// first host write in the FTL's stripe.
		{"negative write cursor", withDeviceState(t, tiny, func(st *ssd.DeviceState) { st.FTL.Cursor = -7 }), "write cursor -7 is negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := sprinkler.ReadSnapshot(bytes.NewReader(tc.in))
			if err == nil || snap != nil {
				t.Fatalf("ReadSnapshot returned (%v, %v) for damaged input", snap, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// withDeviceState re-frames a snapshot file with its payload decoded,
// changed by edit and encoded again, under a recomputed checksum.
func withDeviceState(t testing.TB, raw []byte, edit func(*ssd.DeviceState)) []byte {
	t.Helper()
	const header = 12 // magic + version
	body := raw[header : len(raw)-4]
	n, w := binary.Uvarint(body)
	cfg, rest := body[:w+int(n)], body[w+int(n):]
	n, w = binary.Uvarint(rest)
	st, err := ssd.DecodeDeviceState(rest[w : w+int(n)])
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	payload := st.Append(nil)
	out := append(append([]byte(nil), raw[:header]...), cfg...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestSnapshotDamagedFTLFailsEveryHydration: a file whose framing,
// checksum and shape are sound but whose FTL maps two LPNs to one page
// reads, and then fails every hydration — the first, which validates the
// FTL image, and every later one, through NewDevice and Open alike —
// with the same descriptive error, and never hands out a device.
func TestSnapshotDamagedFTLFailsEveryHydration(t *testing.T) {
	cfg := agedConfig(sprinkler.SPK3)
	raw := withDeviceState(t, checkpointOf(t, cfg, 0.6, 0.3, 7), func(st *ssd.DeviceState) {
		st.FTL.L2P[1].PPN = st.FTL.L2P[0].PPN
	})
	_, want := restore(raw)
	if want == nil || !strings.Contains(want.Error(), "sprinkler: hydrating from snapshot: ftl: snapshot maps ppn") {
		t.Fatalf("restore error = %v, want a shared-page hydration error", want)
	}
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("a file with sound framing and shape does not read: %v", err)
	}
	for i := 0; i < 3; i++ {
		dev, err := snap.NewDevice()
		if dev != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("hydration %d: (%v, %v), want error %q", i+1, dev, err, want)
		}
	}
	if sess, err := sprinkler.Open(cfg, sprinkler.WithSnapshot(snap)); sess != nil || err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("Open: (%v, %v), want error %q", sess, err, want)
	}
}

// TestSnapshotConcurrentHydration hydrates one freshly read snapshot from
// several goroutines at once, so the FTL image is built while other
// hydrations wait for it, and runs each device. Every Result must be
// byte-identical to a drive that replayed the warm-up.
func TestSnapshotConcurrentHydration(t *testing.T) {
	cfg := agedConfig(sprinkler.SPK3)
	const fill, churn, seed = 0.85, 0.35, 13
	raw := checkpointOf(t, cfg, fill, churn, seed)
	replayed, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed.Precondition(fill, churn, seed)
	want := runWorkload(t, replayed, "msnfs1", 200, 5)

	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var results [n]string
	var errs [n]error
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev, err := snap.NewDevice()
			if err != nil {
				errs[i] = err
				return
			}
			src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "msnfs1", Requests: 200, Seed: 5})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := dev.Run(context.Background(), src)
			if err != nil {
				errs[i] = err
				return
			}
			b, err := json.Marshal(res)
			results[i], errs[i] = string(b), err
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("hydration %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Errorf("hydration %d diverged from the replayed drive:\n want: %s\n got:  %s", i, want, results[i])
		}
	}
}

// flipByte copies b with one byte XOR-flipped.
func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x5A
	return out
}

// TestSnapshotGoldenFixture decodes the checked-in fixture — written by
// testdata/gen_snapshot.go on the version-1 format — and runs a workload
// on it. This pins backward readability: a codec change that cannot read
// version-1 files must bump SnapshotVersion, not silently misdecode.
func TestSnapshotGoldenFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "warm_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := sprinkler.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	cfg := snap.Config()
	if cfg.Channels != 2 || cfg.ChipsPerChan != 4 || cfg.Scheduler != sprinkler.SPK3 {
		t.Fatalf("fixture config drifted: %+v", cfg)
	}
	dev, err := snap.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	fp := runWorkload(t, dev, "msnfs1", 200, 13)

	// The fixture must hydrate deterministically: a second device from the
	// same decoded snapshot replays identically.
	dev2, err := snap.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 := runWorkload(t, dev2, "msnfs1", 200, 13); fp2 != fp {
		t.Errorf("fixture hydration not deterministic:\n first:  %s\n second: %s", fp, fp2)
	}
}

// TestGridSnapshotSweep runs an aged-drive scheduler sweep hydrated from
// one decoded snapshot — concurrently, with and without device reuse —
// and checks every cell equals a directly hydrated reference run. The
// reuse pass must recycle pooled devices (Reset, then hydrate).
func TestGridSnapshotSweep(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.85, 0.35, 29)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	grid := sprinkler.Grid{
		Base:       base,
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{"msnfs1", "cfs0"},
		Requests:   150,
		Snapshot:   snap,
	}

	for _, noreuse := range []bool{false, true} {
		arena := sprinkler.NewDeviceArena()
		runner := sprinkler.Runner{Workers: 4, Arena: arena, NoReuse: noreuse}
		for _, cr := range runner.Run(context.Background(), grid.Cells()) {
			if cr.Err != nil {
				t.Fatalf("noreuse=%v: cell %s: %v", noreuse, cr.Name, cr.Err)
			}
			cfg := base
			cfg.Scheduler = sprinkler.SchedulerKind(cr.Labels["scheduler"])
			ref, err := snap.NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := runWorkload(t, ref, cr.Labels["workload"], 150, cr.Seed)
			got, err := json.Marshal(cr.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("noreuse=%v: cell %s diverged from direct hydration:\n want: %s\n got:  %s",
					noreuse, cr.Name, want, got)
			}
		}
		if hits := arena.Stats().DeviceHits; noreuse != (hits == 0) {
			t.Errorf("noreuse=%v: %d arena device hits", noreuse, hits)
		}
	}
}

// TestGridSnapshotPreconditionConflict pins the both-warmups error.
func TestGridSnapshotPreconditionConflict(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.6, 0.2, 31)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	grid := sprinkler.Grid{
		Base:         base,
		Workloads:    []string{"cfs0"},
		Requests:     50,
		Snapshot:     snap,
		Precondition: &sprinkler.Precondition{FillFrac: 0.5, ChurnFrac: 0.1},
	}
	for _, cr := range (sprinkler.Runner{}).Run(context.Background(), grid.Cells()) {
		if cr.Err == nil || !strings.Contains(cr.Err.Error(), "both Snapshot and Precondition") {
			t.Errorf("cell %s: want both-warmups error, got %v", cr.Name, cr.Err)
		}
	}
}

// TestSessionWithSnapshot opens a Session hydrated from a snapshot and
// checks its drained Result equals a session that replayed the
// preconditioning, plus the option-misuse errors.
func TestSessionWithSnapshot(t *testing.T) {
	cfg := agedConfig(sprinkler.SPK2)
	raw := checkpointOf(t, cfg, 0.8, 0.25, 41)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	drive := func(sess *sprinkler.Session) string {
		t.Helper()
		for i := 0; i < 120; i++ {
			if err := sess.Submit(sprinkler.Request{LPN: int64(i * 8), Pages: 8, Write: i%3 == 0}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sess.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	replayed, err := sprinkler.Open(cfg, sprinkler.WithPrecondition(sprinkler.Precondition{
		FillFrac: 0.8, ChurnFrac: 0.25, Seed: 41,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := drive(replayed)

	hydrated, err := sprinkler.Open(cfg, sprinkler.WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := drive(hydrated); got != want {
		t.Errorf("snapshot-hydrated session diverged:\n replay:  %s\n restore: %s", want, got)
	}

	if _, err := sprinkler.Open(cfg, sprinkler.WithSnapshot(snap),
		sprinkler.WithPrecondition(sprinkler.Precondition{FillFrac: 0.5})); err == nil {
		t.Error("WithSnapshot + WithPrecondition did not error")
	}
	bad := cfg
	bad.QueueDepth = 8
	if _, err := sprinkler.Open(bad, sprinkler.WithSnapshot(snap)); err == nil {
		t.Error("incompatible session config did not error")
	}
}

// TestCheckpointDrainedDevice pins that the checkpoint boundary works on
// every quiescent state a device passes through publicly: fresh, after
// preconditioning, and after a completed run — and that each restores.
func TestCheckpointDrainedDevice(t *testing.T) {
	cfg := agedConfig(sprinkler.SPK3)
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(stage string) {
		t.Helper()
		var buf bytes.Buffer
		if err := dev.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if _, err := restore(buf.Bytes()); err != nil {
			t.Fatalf("%s: restore: %v", stage, err)
		}
	}
	checkpoint("fresh device")
	dev.Precondition(0.7, 0.3, 3)
	checkpoint("preconditioned device")
	_ = runWorkload(t, dev, "cfs0", 100, 9)
	checkpoint("drained device")
}

// checkpointDigestFile pins the FNV-64a digest of the Checkpoint bytes
// of one aged drive per payload branch.
const checkpointDigestFile = "snapshot_digests.golden"

// TestCheckpointDigests pins the writer: each drive is preconditioned,
// runs a short seeded workload and is checkpointed, and the bytes must
// hash to the committed digest. The golden fixture and the round-trip
// tests pin only the reader, or a writer and reader that change
// together. Regenerate with -update only for a deliberate model change.
func TestCheckpointDigests(t *testing.T) {
	plain := agedConfig(sprinkler.SPK3)
	exact := plain
	exact.CollectSeries = true
	windowed := exact
	windowed.SeriesWindow = 64
	windowed.MetricsSampleCap = -1
	faulty := plain
	faulty.Faults = sprinkler.FaultSpec{
		ReadFailProb: 0.05, ProgramFailProb: 0.01, EraseFailProb: 0.2,
		ReadRetryMax: 3, ReadRetryMult: 2, RewriteMax: 2,
		OutagePeriodNS: 1_000_000, OutageDurNS: 20_000,
		SpareBlockFrac: 0.1, Seed: 5,
	}
	drives := []struct {
		name string
		cfg  sprinkler.Config
		// check confirms the drive reaches the branch it is here for.
		check func(sprinkler.SnapshotStats) bool
	}{
		{"plain", plain, func(s sprinkler.SnapshotStats) bool { return s.GCRuns > 0 }},
		{"exact-series", exact, func(s sprinkler.SnapshotStats) bool { return s.SeriesPoints > 64 }},
		{"windowed-series", windowed, func(s sprinkler.SnapshotStats) bool { return s.SeriesPoints == 64 }},
		{"faults", faulty, func(s sprinkler.SnapshotStats) bool { return s.RetiredBlocks > 0 && s.SparesUsed > 0 }},
	}
	var got bytes.Buffer
	for _, d := range drives {
		dev, err := sprinkler.New(d.cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.Precondition(0.9, 0.4, 11)
		_ = runWorkload(t, dev, "msnfs0", 400, 23)
		var buf bytes.Buffer
		if err := dev.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		snap, err := sprinkler.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if st := snap.Stats(); !d.check(st) {
			t.Fatalf("%s: the drive misses its payload branch: %+v", d.name, st)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		fmt.Fprintf(&got, "%s %d %016x\n", d.name, buf.Len(), h.Sum64())
	}
	path := filepath.Join("testdata", checkpointDigestFile)
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestCheckpointDigests -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Checkpoint digests drifted from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
