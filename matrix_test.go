package sprinkler_test

// Determinism matrix: randomized platforms, workloads and fault specs for
// every scheduler, pinned by Result digest in
// testdata/matrix_digests.golden. Where TestDeterminismGolden covers the
// headline workloads on one platform, the matrix spreads its cells over
// geometry (2–8 channels), queue depth, pristine / GC-active / fault-armed
// drives and preconditioning, plus the Feed/Advance session windows and a
// Reset-recycled device. A kernel or controller change that reorders any
// event on any of these paths shows up as a digest diff. Regenerate with
// -update only for a deliberate model change.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sprinkler"
)

// Platform classes of the matrix cells.
const (
	classPristine = iota // GC off
	classGC              // clipped logical space keeps planes under collection pressure
	classFaults          // GC on plus the full flash fault model
	classLadder          // GC on plus parityFaults: retry ladders and outage windows
	numClasses
)

var classNames = [numClasses]string{"pristine", "gc", "faults", "ladder"}

// parityConfig builds a randomized multi-channel platform of the given
// class for scheduler kind.
func parityConfig(rng *rand.Rand, kind sprinkler.SchedulerKind, class int) sprinkler.Config {
	cfg := sprinkler.DefaultConfig()
	cfg.Scheduler = kind
	cfg.Channels = []int{2, 4, 8}[rng.Intn(3)]
	cfg.ChipsPerChan = []int{1, 2, 4}[rng.Intn(3)]
	cfg.BlocksPerPlane = 64
	cfg.PagesPerBlock = 32
	cfg.QueueDepth = []int{8, 32, 64}[rng.Intn(3)]
	switch class {
	case classPristine:
		cfg.DisableGC = true
	case classGC:
		cfg.BlocksPerPlane = 24
		cfg.LogicalPages = cfg.TotalPages() * 85 / 100
		cfg.GCFreeTarget = 8
	case classFaults:
		cfg.BlocksPerPlane = 32
		cfg.LogicalPages = cfg.TotalPages() * 85 / 100
		cfg.Faults = sprinkler.FaultSpec{
			ReadFailProb:    0.02,
			ProgramFailProb: 0.02,
			EraseFailProb:   0.05,
			ReadRetryMax:    3,
			ReadRetryMult:   2,
			RewriteMax:      4,
			SpareBlockFrac:  0.08,
			Seed:            rng.Uint64(),
		}
	case classLadder:
		cfg.BlocksPerPlane = 32
		cfg.LogicalPages = cfg.TotalPages() * 85 / 100
		cfg.Faults = parityFaults(rng)
	}
	return cfg
}

// parityFaults draws a randomized fault spec: read and program failure
// rates, retry ladders and, half the time, periodic chip outages.
func parityFaults(rng *rand.Rand) sprinkler.FaultSpec {
	probs := []float64{0.005, 0.02, 0.08, 0.25}
	spec := sprinkler.FaultSpec{
		ReadFailProb:    probs[rng.Intn(len(probs))],
		ProgramFailProb: probs[rng.Intn(len(probs))],
		ReadRetryMax:    1 + rng.Intn(4),
		ReadRetryMult:   1 + rng.Intn(3),
		RewriteMax:      1 + rng.Intn(4),
		Seed:            rng.Uint64(),
	}
	if rng.Intn(2) == 0 {
		spec.OutagePeriodNS = int64(200_000 * (1 + rng.Intn(5)))
		spec.OutageDurNS = spec.OutagePeriodNS / int64(2+rng.Intn(6))
	}
	return spec
}

// paritySource picks a randomized workload for the config. It draws every
// random choice up front and returns a constructor, so a cell can replay
// the same workload through more than one path.
func paritySource(t *testing.T, rng *rand.Rand, cfg sprinkler.Config, n int) func() sprinkler.Source {
	t.Helper()
	switch rng.Intn(4) {
	case 0:
		seed := rng.Uint64()
		return func() sprinkler.Source { return workloadSource(t, cfg, "msnfs1", n, seed) }
	case 1:
		run := 1 + rng.Intn(8)
		return func() sprinkler.Source { return sprinkler.SliceSource(sprinkler.SequentialReads(n, run)) }
	case 2:
		run := 1 + rng.Intn(8)
		return func() sprinkler.Source { return sprinkler.SliceSource(sprinkler.SequentialWrites(n, run)) }
	default:
		seed := rng.Uint64()
		return func() sprinkler.Source { return workloadSource(t, cfg, "proj0", n, seed) }
	}
}

func workloadSource(t *testing.T, cfg sprinkler.Config, name string, n int, seed uint64) sprinkler.Source {
	t.Helper()
	src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: name, Requests: n, Seed: seed})
	if err != nil {
		t.Fatalf("workload source: %v", err)
	}
	return src
}

// runOnce builds a device for cfg (optionally fragmented first), runs the
// source and returns the Result.
func runOnce(t *testing.T, cfg sprinkler.Config, precond bool, pseed uint64, src sprinkler.Source) *sprinkler.Result {
	t.Helper()
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if precond {
		dev.Precondition(0.6, 0.3, pseed)
	}
	res, err := dev.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// matrixRequests is the per-cell workload length.
const matrixRequests = 500

// matrixCell is one device cell of the matrix: a platform, an optional
// fragmentation pass, and a replayable workload.
type matrixCell struct {
	name    string
	class   int
	cfg     sprinkler.Config
	precond bool
	pseed   uint64
	source  func() sprinkler.Source
}

// matrixCells draws every scheduler × class × precondition cell.
func matrixCells(t *testing.T) []matrixCell {
	var cells []matrixCell
	for si, kind := range sprinkler.Schedulers() {
		rng := rand.New(rand.NewSource(int64(si+1) * 7919))
		for class := 0; class < numClasses; class++ {
			for _, precond := range []bool{false, true} {
				cfg := parityConfig(rng, kind, class)
				pseed := rng.Uint64()
				cells = append(cells, matrixCell{
					name:    fmt.Sprintf("%s/%s/precond=%v", kind, classNames[class], precond),
					class:   class,
					cfg:     cfg,
					precond: precond,
					pseed:   pseed,
					source:  paritySource(t, rng, cfg, matrixRequests),
				})
			}
		}
	}
	return cells
}

// matrixDeviceCells runs every matrix device cell and records each
// Result's JSON under its cell name. It reports whether some GC-active
// cell collected and whether some fault-armed cell saw both read retries
// and program failures.
func matrixDeviceCells(t *testing.T, fps map[string]string) (gcLive, faultsLive bool) {
	for _, c := range matrixCells(t) {
		res := runOnce(t, c.cfg, c.precond, c.pseed, c.source())
		fps[c.name] = mustJSON(t, res)
		if c.class == classGC && res.GCRuns > 0 {
			gcLive = true
		}
		if c.cfg.Faults != (sprinkler.FaultSpec{}) && res.ReadRetries > 0 && res.ProgramFails > 0 {
			faultsLive = true
		}
	}
	return gcLive, faultsLive
}

// matrixSessionCell drives one scheduler through Feed/Advance windows and
// renders every window's Snapshot plus the drained Result.
func matrixSessionCell(t *testing.T, kind sprinkler.SchedulerKind) string {
	cfg := sprinkler.DefaultConfig()
	cfg.Scheduler = kind
	cfg.Channels = 4
	cfg.ChipsPerChan = 2
	cfg.BlocksPerPlane = 24
	cfg.PagesPerBlock = 16
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	cfg.GCFreeTarget = 8
	sess, err := sprinkler.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	src := workloadSource(t, cfg, "cfs1", 400, 5)
	var snaps []sprinkler.Snapshot
	for {
		n, err := sess.Feed(src, 50)
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		if err := sess.Advance(1_000_000); err != nil { // 1 ms windows
			t.Fatalf("Advance: %v", err)
		}
		snaps = append(snaps, sess.Snapshot())
		if n == 0 {
			break
		}
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return mustJSON(t, snaps) + mustJSON(t, res)
}

// matrixResetCell runs a fault-armed GC workload, resets the same device to
// a different per-run configuration and renders the second run's Result.
func matrixResetCell(t *testing.T) string {
	first := sprinkler.DefaultConfig()
	first.Scheduler = sprinkler.SPK3
	first.Channels = 4
	first.ChipsPerChan = 2
	first.BlocksPerPlane = 24
	first.PagesPerBlock = 16
	first.LogicalPages = first.TotalPages() * 85 / 100
	first.GCFreeTarget = 8
	first.Faults = sprinkler.FaultSpec{ReadFailProb: 0.05, ProgramFailProb: 0.05, ReadRetryMax: 2, ReadRetryMult: 2, RewriteMax: 2, Seed: 9}
	second := first
	second.Scheduler = sprinkler.PAS
	second.QueueDepth = 16
	second.Faults = sprinkler.FaultSpec{}

	dev, err := sprinkler.New(first)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dev.Precondition(0.7, 0.3, 3)
	if _, err := dev.Run(context.Background(), workloadSource(t, first, "proj0", 300, 4)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := dev.Reset(second); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	dev.Precondition(0.6, 0.2, 8)
	res, err := dev.Run(context.Background(), workloadSource(t, second, "msnfs1", 300, 6))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	return mustJSON(t, res)
}

// matrixDigestFile pins the FNV-64a digest of every matrix cell's Result
// JSON.
const matrixDigestFile = "matrix_digests.golden"

// TestDeterminismMatrix compares every matrix cell's Result digest with
// testdata/matrix_digests.golden. The cell set is fixed (independent of
// -short), and the test fails if the GC-active cells never collect or the
// fault-armed cells leave the fault model idle, so the pinned digests
// always cover live collection, retry and rewrite paths.
func TestDeterminismMatrix(t *testing.T) {
	fps := map[string]string{}
	gcLive, faultsLive := matrixDeviceCells(t, fps)
	if !gcLive {
		t.Fatal("no GC-active cell collected; the matrix does not cover garbage collection")
	}
	if !faultsLive {
		t.Fatal("no fault-armed cell reported both read retries and program fails; the matrix does not cover the fault model")
	}
	for _, kind := range sprinkler.Schedulers() {
		fps[string(kind)+"/session"] = matrixSessionCell(t, kind)
	}
	fps["reset-recycled"] = matrixResetCell(t)

	got := renderDigests(fps)
	path := filepath.Join("testdata", matrixDigestFile)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestDeterminismMatrix -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("matrix digests drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
