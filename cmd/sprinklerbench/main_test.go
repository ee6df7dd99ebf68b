package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the tests
// hold the command to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []jsonMetric            `json:"end_to_end"`
	PerLayer  []jsonMetric            `json:"per_layer"`
}

type jsonMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		json []jsonMetric
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var fromGo []jsonMetric
		for _, d := range c.code {
			fromGo = append(fromGo, jsonMetric{d.name, d.unit})
		}
		if !slices.Equal(c.json, fromGo) {
			t.Errorf("BENCHMARK.json %s:\n%v\nthe command reports:\n%v", c.kind, c.json, fromGo)
		}
	}
}

// TestWorkloadsReportEveryMetric runs every workload at a small scale, once
// untraced and once traced, and checks the printed report: every metric of
// BENCHMARK.json with its unit, no failed check, and the same simulated
// results in both runs.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for trace := 0; trace <= 1; trace++ {
				want := b.EndToEnd
				if trace == 1 {
					want = b.PerLayer
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				rep, err := runWorkload(ctx, options{workload: name, seed: 2, seconds: 0.1, trace: trace, scale: 0.01})
				cancel()
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				var out bytes.Buffer
				if err := rep.write(&out, name); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				checkReportLine(t, lines[len(lines)-1], want, trace == 0)
				for _, m := range want {
					if !hasLine(lines, name+" "+m.Name+" ", " "+m.Unit) {
						t.Errorf("trace %d: no line for %s in %s", trace, m.Name, m.Unit)
					}
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
					t.Errorf("trace %d: correct %v, %d of %d failed:\n%s", trace, rep.Correct, rep.Failed, rep.Attempted, out.String())
				}
				if trace == 1 {
					sum := 0.0
					for k, m := range rep.Metrics {
						if strings.HasPrefix(k, "cpu.") {
							sum += m.Value
						}
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("cpu.* shares sum to %g", sum)
					}
				}
				for _, l := range lines {
					if d, ok := strings.CutPrefix(l, name+" sim_digest "); ok {
						digests = append(digests, d)
					}
				}
			}
			if len(digests) != 2 || digests[0] != digests[1] {
				t.Errorf("simulated results differ between runs: digests %v", digests)
			}
		})
	}
}

// checkReportLine checks the last line: exactly the four keys, and exactly
// the wanted metrics, each with its unit (and non-zero when nonZero).
func checkReportLine(t *testing.T, line string, want []jsonMetric, nonZero bool) {
	t.Helper()
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v: %s", err, line)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("report has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var ms map[string]metric
	if err := json.Unmarshal(keys["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(want) {
		t.Errorf("report has %d metrics, want %d", len(ms), len(want))
	}
	for _, w := range want {
		m, ok := ms[w.Name]
		switch {
		case !ok:
			t.Errorf("report lacks %s", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		case nonZero && m.Value == 0:
			t.Errorf("%s is 0", w.Name)
		}
	}
}

func hasLine(lines []string, prefix, suffix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, suffix) {
			return true
		}
	}
	return false
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"sprinkler/internal/sim.(*Engine).siftDown":              "sprinkler/internal/sim",
		"sprinkler.(*Device).Run.func1":                          "sprinkler",
		"runtime.mallocgc":                                       "runtime",
		"net/http.(*conn).serve":                                 "net/http",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "internal/runtime/maps",
		"slices.SortFunc[go.shape.[]*sprinkler/internal/req.IO]": "slices",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
	for pkg, want := range map[string]string{
		"sprinkler/internal/serve/client": "cpu.serve",
		"net/http/internal":               "cpu.net_http",
		"internal/runtime/maps":           "cpu.runtime",
		"main":                            "cpu.other",
	} {
		if got := cpuMetric(pkg); got != want {
			t.Errorf("cpuMetric(%q) = %q, want %q", pkg, got, want)
		}
	}
}
