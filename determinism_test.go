package sprinkler_test

// Determinism golden test: the simulator must be a pure function of its
// inputs. Representative workloads (a seeded msnfs1 trace and a sequential
// stream) run under every scheduler, and the full public Result must be
// byte-identical across repeated runs and across Runner concurrency
// levels, and match the digests pinned in
// testdata/determinism_digests.golden. This is the safety net for every
// kernel/scheduler performance change: an optimization that perturbs event
// order, tie-breaking, or scheduling decisions shows up here as a
// field-level diff between runs or a digest diff against the file.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sprinkler"
)

// goldenCells builds the scheduler × workload grid the golden test runs.
func goldenCells() []sprinkler.Cell {
	var cells []sprinkler.Cell
	for _, kind := range sprinkler.Schedulers() {
		kind := kind
		cfg := sprinkler.Platform(16)
		cfg.BlocksPerPlane = 64
		cfg.Scheduler = kind
		cells = append(cells,
			sprinkler.Cell{
				Name:   string(kind) + "/msnfs1",
				Config: cfg,
				Seed:   7,
				Source: func(seed uint64) (sprinkler.Source, error) {
					return cfg.NewWorkloadSource(sprinkler.WorkloadSpec{
						Name: "msnfs1", Requests: 400, Seed: seed,
					})
				},
			},
			sprinkler.Cell{
				Name:   string(kind) + "/seqread",
				Config: cfg,
				Seed:   7,
				Source: func(seed uint64) (sprinkler.Source, error) {
					return sprinkler.SliceSource(sprinkler.SequentialReads(300, 8)), nil
				},
			},
			sprinkler.Cell{
				Name:   string(kind) + "/seqwrite",
				Config: cfg,
				Seed:   7,
				Source: func(seed uint64) (sprinkler.Source, error) {
					return sprinkler.SliceSource(sprinkler.SequentialWrites(300, 8)), nil
				},
			},
		)
	}
	return cells
}

// resultFingerprint renders every exported Result field, so a drift in any
// measurement — not just the headline numbers — fails the comparison.
func resultFingerprint(t *testing.T, r *sprinkler.Result) string {
	t.Helper()
	if r == nil {
		return "<nil>"
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

func runGolden(t *testing.T, workers int) map[string]string {
	t.Helper()
	out := map[string]string{}
	results := sprinkler.Runner{Workers: workers}.Run(context.Background(), goldenCells())
	for _, cr := range results {
		if cr.Err != nil {
			t.Fatalf("cell %s failed: %v", cr.Name, cr.Err)
		}
		out[cr.Name] = resultFingerprint(t, cr.Result)
	}
	return out
}

// digestFile pins the FNV-64a digest of every golden cell's Result JSON.
const digestFile = "determinism_digests.golden"

// hydratedGolden fingerprints a workload on a device hydrated from an aged
// checkpoint, so the pinned digests cover the snapshot restore path too.
func hydratedGolden(t *testing.T) string {
	t.Helper()
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(checkpointOf(t, agedConfig(sprinkler.SPK3), 0.75, 0.4, 17)))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := snap.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	return runWorkload(t, dev, "msnfs1", 200, 13)
}

// renderDigests formats one "name digest" line per cell, sorted by name.
func renderDigests(fps map[string]string) []byte {
	names := make([]string, 0, len(fps))
	for name := range fps {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, name := range names {
		h := fnv.New64a()
		h.Write([]byte(fps[name]))
		fmt.Fprintf(&b, "%s %016x\n", name, h.Sum64())
	}
	return b.Bytes()
}

// TestDeterminismGolden asserts run-to-run reproducibility for all five
// schedulers on the representative workloads, and that the Results match
// the digests committed in testdata — so a change that perturbs any Result
// fails even when it is self-consistent. Regenerate with -update only for
// a deliberate model change.
func TestDeterminismGolden(t *testing.T) {
	first := runGolden(t, 1)
	second := runGolden(t, 1)
	if !reflect.DeepEqual(first, second) {
		for name, fp := range first {
			if second[name] != fp {
				t.Errorf("cell %s not reproducible:\n run1: %s\n run2: %s", name, fp, second[name])
			}
		}
		t.Fatal("simulation results drifted between identical runs")
	}
	first["SPK3/aged-hydrated/msnfs1"] = hydratedGolden(t)
	got := renderDigests(first)
	path := filepath.Join("testdata", digestFile)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestDeterminismGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Result digests drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestDeterminismAcrossConcurrency asserts that Runner worker count does
// not leak into results: concurrent sweeps must equal serial ones.
func TestDeterminismAcrossConcurrency(t *testing.T) {
	serial := runGolden(t, 1)
	for _, workers := range []int{2, 8} {
		got := runGolden(t, workers)
		if !reflect.DeepEqual(serial, got) {
			for name, fp := range serial {
				if got[name] != fp {
					t.Errorf("workers=%d: cell %s diverged:\n serial:     %s\n concurrent: %s",
						workers, name, fp, got[name])
				}
			}
			t.Fatalf("results depend on Runner concurrency (workers=%d)", workers)
		}
	}
}
