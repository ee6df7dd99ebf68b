package sprinkler_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"sprinkler"
)

// runOn drives one workload cell on dev and returns the JSON-rendered
// Result, the byte-exact fingerprint reuse must preserve.
func runOn(t *testing.T, dev *sprinkler.Device, cfg sprinkler.Config, workload string, requests int, seed uint64, pre *sprinkler.Precondition) string {
	t.Helper()
	if pre != nil {
		dev.Precondition(pre.FillFrac, pre.ChurnFrac, pre.Seed)
	}
	src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: workload, Requests: requests, Seed: seed})
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

// TestArenaReuseParityRandomized is the reuse-correctness pin: randomized
// cells — every scheduler, varying queue depths, series modes, GC
// preconditioning and workloads — each run once on a fresh
// device and once on a single arena-recycled device chain. The
// JSON-rendered Results must be byte-identical, proving Reset reproduces
// New exactly across every layer's retained state.
func TestArenaReuseParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	workloads := sprinkler.Workloads()
	arena := sprinkler.NewDeviceArena()

	queueDepths := []int{16, 32, 64}
	cells := 0
	for _, kind := range sprinkler.Schedulers() {
		for i := 0; i < 6; i++ {
			cfg := smallConfig(kind)
			cfg.QueueDepth = queueDepths[rng.Intn(len(queueDepths))]
			cfg.CollectSeries = rng.Intn(2) == 0
			if cfg.CollectSeries && rng.Intn(2) == 0 {
				cfg.SeriesWindow = 16
			}
			var pre *sprinkler.Precondition
			if rng.Intn(3) == 0 {
				pre = &sprinkler.Precondition{FillFrac: 0.9, ChurnFrac: 0.4, Seed: rng.Uint64()}
			}
			// Half the cells run with fault injection armed — including
			// erase faults and a spare pool, so Reset must also restore
			// bad-block maps, spare counters and degraded state exactly.
			if rng.Intn(2) == 0 {
				cfg.Faults = sprinkler.FaultSpec{
					ReadFailProb:    []float64{0.01, 0.1}[rng.Intn(2)],
					ProgramFailProb: []float64{0.01, 0.1}[rng.Intn(2)],
					EraseFailProb:   []float64{0, 0.5}[rng.Intn(2)],
					ReadRetryMax:    1 + rng.Intn(3),
					ReadRetryMult:   2,
					RewriteMax:      2,
					SpareBlockFrac:  0.05,
					Seed:            rng.Uint64(),
				}
				if pre == nil { // erase faults need GC pressure to fire
					pre = &sprinkler.Precondition{FillFrac: 0.9, ChurnFrac: 0.4, Seed: rng.Uint64()}
				}
			}
			workload := workloads[rng.Intn(len(workloads))]
			requests := 60 + rng.Intn(120)
			seed := rng.Uint64()

			fresh, err := sprinkler.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := runOn(t, fresh, cfg, workload, requests, seed, pre)

			reused, err := arena.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runOn(t, reused, cfg, workload, requests, seed, pre)
			arena.Put(reused)

			if got != want {
				t.Fatalf("%s cell %d (%s qd=%d pre=%v): reused result diverged\nfresh:  %s\nreused: %s",
					kind, i, workload, cfg.QueueDepth, pre != nil, want, got)
			}
			cells++
		}
	}
	if cells < 25 {
		t.Fatalf("parity covered only %d cells", cells)
	}
	// Every reused cell after the first of a topology must actually have
	// recycled: one device per distinct topology remains pooled.
	if n := arena.Size(); n != 1 {
		t.Fatalf("arena pooled %d devices, want 1 (single topology, serial checkouts)", n)
	}
}

// TestRunnerArenaMatchesNoReuse runs one grid through the Runner twice —
// arena-recycled and NoReuse — and requires identical results, the
// Runner-level face of the reuse-parity guarantee.
func TestRunnerArenaMatchesNoReuse(t *testing.T) {
	grid := sprinkler.Grid{
		Base:       smallConfig(sprinkler.SPK3),
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{"cfs0", "msnfs1"},
		Requests:   120,
		Vary:       []sprinkler.Axis{queueDepthAxis(16, 64)},
	}
	reused := sprinkler.Runner{Workers: 2}.Run(context.Background(), grid.Cells())
	freshly := sprinkler.Runner{Workers: 2, NoReuse: true}.Run(context.Background(), grid.Cells())
	if len(reused) != len(freshly) {
		t.Fatalf("result counts differ: %d vs %d", len(reused), len(freshly))
	}
	for i := range reused {
		a, b := reused[i], freshly[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("cell %q failed: arena=%v fresh=%v", a.Name, a.Err, b.Err)
		}
		aj, _ := json.Marshal(a.Result)
		bj, _ := json.Marshal(b.Result)
		if string(aj) != string(bj) {
			t.Fatalf("cell %q diverged between arena and fresh paths:\narena: %s\nfresh: %s", a.Name, aj, bj)
		}
	}
}

// TestDeviceResetRejectsGeometryChange: the arena key exists because a
// device cannot change shape in place.
func TestDeviceResetRejectsGeometryChange(t *testing.T) {
	cfg := smallConfig(sprinkler.SPK3)
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bigger := cfg
	bigger.Channels = 4
	if err := dev.Reset(bigger); err == nil {
		t.Fatal("Reset accepted a geometry change")
	}
	// Same geometry, different run knobs: fine.
	again := cfg
	again.Scheduler = sprinkler.VAS
	again.QueueDepth = 16
	if err := dev.Reset(again); err != nil {
		t.Fatalf("Reset rejected a per-run change: %v", err)
	}
	if dev.Config().Scheduler != sprinkler.VAS {
		t.Fatalf("Config not updated after Reset: %+v", dev.Config())
	}
}

// TestArenaMaxDevicesLRU pins the bounded-arena contract: Put past the cap
// evicts the least-recently-used pooled device, and the survivors are the
// ones handed back out.
func TestArenaMaxDevicesLRU(t *testing.T) {
	mk := func(channels int) (sprinkler.Config, *sprinkler.Device) {
		cfg := smallConfig(sprinkler.SPK3)
		cfg.Channels = channels
		d, err := sprinkler.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, d
	}
	cfgA, devA := mk(1)
	cfgB, devB := mk(2)
	cfgC, devC := mk(4)

	arena := &sprinkler.DeviceArena{MaxDevices: 2}
	arena.Put(devA)
	arena.Put(devB)
	arena.Put(devC) // exceeds the cap: devA (oldest) must go
	if n := arena.Size(); n != 2 {
		t.Fatalf("bounded arena holds %d devices, want 2", n)
	}

	gotB, err := arena.Get(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if gotB != devB {
		t.Fatal("bounded arena evicted a recently used device")
	}
	gotC, err := arena.Get(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if gotC != devC {
		t.Fatal("most recently pooled device was not retained")
	}
	gotA, err := arena.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if gotA == devA {
		t.Fatal("evicted device resurfaced")
	}
	if n := arena.Size(); n != 0 {
		t.Fatalf("arena should be empty after checkouts, has %d", n)
	}

	// Recency updates on reuse: B used last (put later) survives over C.
	arena.Put(gotC)
	arena.Put(gotB)
	_, devD := mk(8)
	arena.Put(devD) // evicts gotC, the least recently put
	if got, err := arena.Get(cfgB); err != nil || got != gotB {
		t.Fatalf("recently used device evicted (err=%v)", err)
	}
	if got, err := arena.Get(cfgC); err != nil || got == gotC {
		t.Fatalf("LRU device not evicted (err=%v)", err)
	}
}

// TestArenaGetKeepsDeviceOnInvalidConfig pins that an invalid config is
// refused before checkout: the pooled device stays pooled, no hit is
// counted, and the next valid Get reuses it.
func TestArenaGetKeepsDeviceOnInvalidConfig(t *testing.T) {
	cfg := sprinkler.Platform(4)
	arena := sprinkler.NewDeviceArena()
	dev, err := arena.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arena.Put(dev)
	bad := cfg
	bad.QueueDepth = 0
	if _, err := arena.Get(bad); err == nil {
		t.Fatal("Get accepted QueueDepth 0")
	}
	if n := arena.Size(); n != 1 {
		t.Fatalf("invalid Get left %d pooled devices, want 1", n)
	}
	if st := arena.Stats(); st.DeviceHits != 0 || st.DeviceMisses != 1 {
		t.Fatalf("invalid Get counted: %+v", st)
	}
	got, err := arena.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != dev || arena.Stats().DeviceHits != 1 {
		t.Fatalf("valid Get after an invalid one missed the pool: %+v", arena.Stats())
	}
}
