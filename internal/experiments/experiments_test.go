package experiments

import (
	"strings"
	"testing"

	"sprinkler"
)

// tinyOpts shrinks every experiment to seconds.
func tinyOpts() Options { return Options{Scale: 0.04, Chips: 16} }

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Scale != 1 || o.Chips != 64 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	o = Options{Scale: 2}.Defaults()
	if o.Scale != 1 {
		t.Fatal("scale > 1 not clamped")
	}
	if (Options{Scale: 0.5}).Defaults().scaled(100, 10) != 50 {
		t.Fatal("scaled() wrong")
	}
	if (Options{Scale: 0.001}).Defaults().scaled(100, 10) != 10 {
		t.Fatal("scaled() floor wrong")
	}
}

func TestPlatformShapes(t *testing.T) {
	cases := map[int][2]int{ // chips -> {channels, chipsPerChan}
		64:   {8, 8},
		256:  {16, 16},
		1024: {32, 32},
		1:    {1, 1},
	}
	for chips, want := range cases {
		cfg := sprinkler.Platform(chips)
		if cfg.Channels != want[0] || cfg.ChipsPerChan != want[1] {
			t.Fatalf("sprinkler.Platform(%d) = %dx%d, want %dx%d",
				chips, cfg.Channels, cfg.ChipsPerChan, want[0], want[1])
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("sprinkler.Platform(%d) invalid: %v", chips, err)
		}
	}
}

func TestTable1Report(t *testing.T) {
	out := Table1Report()
	for _, want := range []string{"cfs0", "proj4", "locality", "High"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1Report missing %q:\n%s", want, out)
		}
	}
}

// TestEvaluationEndToEnd runs the tiny 5x16 sweep once and checks every
// formatter plus the paper's key orderings.
func TestEvaluationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation sweep is seconds-long")
	}
	ev, err := RunEvaluation(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Workloads) != 16 {
		t.Fatalf("evaluated %d workloads", len(ev.Workloads))
	}
	for _, s := range SchedulerNames {
		for _, w := range ev.Workloads {
			r := ev.Results[s][w]
			if r == nil || r.IOsCompleted == 0 {
				t.Fatalf("missing result %s/%s", s, w)
			}
		}
	}

	// Headline orderings, averaged (individual workloads may vary).
	var bwVAS, bwSPK3, latVAS, latSPK3 float64
	for _, w := range ev.Workloads {
		bwVAS += ev.Results["VAS"][w].BandwidthKBps
		bwSPK3 += ev.Results["SPK3"][w].BandwidthKBps
		latVAS += float64(ev.Results["VAS"][w].AvgLatencyNS)
		latSPK3 += float64(ev.Results["SPK3"][w].AvgLatencyNS)
	}
	if bwSPK3 <= bwVAS {
		t.Fatalf("SPK3 aggregate bandwidth %.0f <= VAS %.0f", bwSPK3, bwVAS)
	}
	if latSPK3 >= latVAS {
		t.Fatalf("SPK3 aggregate latency %.0f >= VAS %.0f", latSPK3, latVAS)
	}

	for name, out := range map[string]string{
		"Fig6":    ev.Fig6(),
		"Fig10a":  ev.Fig10a(),
		"Fig10b":  ev.Fig10b(),
		"Fig10c":  ev.Fig10c(),
		"Fig10d":  ev.Fig10d(),
		"Fig11a":  ev.Fig11a(),
		"Fig11b":  ev.Fig11b(),
		"Fig13":   Fig13(ev),
		"Fig14":   Fig14(ev),
		"Summary": ev.Summary(),
	} {
		if !strings.Contains(out, "cfs0") && name != "Summary" {
			t.Fatalf("%s missing workload rows:\n%s", name, out)
		}
		if len(out) < 100 {
			t.Fatalf("%s suspiciously short:\n%s", name, out)
		}
	}
}

func TestFig1SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	pts, err := RunFig1(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5*6 {
		t.Fatalf("got %d points, want 30", len(pts))
	}
	// Stagnation: bandwidth must NOT keep scaling with dies — the largest
	// platform must be under 4x the 32-die platform for small transfers.
	var bw32, bw512 float64
	for _, p := range pts {
		if p.TransferKB != 8 {
			continue
		}
		switch p.Dies {
		case 32:
			bw32 = p.BandwidthMB
		case 512:
			bw512 = p.BandwidthMB
		}
	}
	if bw32 == 0 || bw512 == 0 {
		t.Fatal("missing sweep points")
	}
	if bw512 > 8*bw32 {
		t.Fatalf("no stagnation: 512 dies %.1f MB/s vs 32 dies %.1f MB/s", bw512, bw32)
	}
	out := FormatFig1(pts)
	if !strings.Contains(out, "Figure 1a") || !strings.Contains(out, "512") {
		t.Fatalf("FormatFig1 output wrong:\n%s", out)
	}
}

func TestFig12Report(t *testing.T) {
	if testing.Short() {
		t.Skip("series run is seconds-long")
	}
	out, err := RunFig12(Options{Scale: 0.05, Chips: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 12", "VAS(ms)", "SPK3(ms)", "means:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig12 missing %q:\n%s", want, out)
		}
	}
}

func TestFig15And16Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	pts, err := RunFig15(Options{Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		if p.Utilization < 0 || p.Utilization > 1 {
			t.Fatalf("utilization out of range: %+v", p)
		}
		if p.Txns <= 0 {
			t.Fatalf("no transactions: %+v", p)
		}
	}
	// SPK3 must not run more transactions than VAS at any sampled point.
	byKey := map[[2]int]map[string]Fig15Point{}
	for _, p := range pts {
		k := [2]int{p.Chips, p.TransferKB}
		if byKey[k] == nil {
			byKey[k] = map[string]Fig15Point{}
		}
		byKey[k][p.Scheduler] = p
	}
	for k, m := range byKey {
		if m["SPK3"].Txns > m["VAS"].Txns {
			t.Fatalf("%v: SPK3 txns %d > VAS %d", k, m["SPK3"].Txns, m["VAS"].Txns)
		}
	}
	if out := FormatFig15(pts); !strings.Contains(out, "Figure 15") {
		t.Fatal("FormatFig15 header missing")
	}
	if out := FormatFig16(pts); !strings.Contains(out, "Figure 16") {
		t.Fatal("FormatFig16 header missing")
	}
}

// TestBurstinessSweep runs the workload-structure study at tiny scale: the
// grid's workload axis is built entirely from combinator specs (Poisson +
// Burst), and burstier arrivals at constant mean rate must not improve
// tail latency.
func TestBurstinessSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	pts, err := RunBurstiness(Options{Scale: 0.05, Chips: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5*4 {
		t.Fatalf("got %d points, want 20", len(pts))
	}
	byKey := map[string]map[float64]BurstPoint{}
	for _, p := range pts {
		if p.AvgLatencyMS <= 0 || p.DutyPct == 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		if byKey[p.Scheduler] == nil {
			byKey[p.Scheduler] = map[float64]BurstPoint{}
		}
		byKey[p.Scheduler][p.DutyPct] = p
	}
	// Compressing the same load into 1/8th of the timeline must not
	// improve latency in aggregate (individual schedulers' tails are noisy
	// at test scale, so the assertion sums over the scheduler axis).
	var smooth, bursty float64
	for _, m := range byKey {
		smooth += m[100].AvgLatencyMS
		bursty += m[12.5].AvgLatencyMS
	}
	if bursty < smooth {
		t.Fatalf("aggregate latency improved under 8x burstiness: %.3f < %.3f", bursty, smooth)
	}
	out := FormatBurstiness(pts)
	for _, want := range []string{"Burstiness sweep", "P99", "duty%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatBurstiness missing %q:\n%s", want, out)
		}
	}
}

func TestFig17GCImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("GC sweep is seconds-long")
	}
	pts, err := RunFig17(Options{Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	sawGCRun := false
	for _, p := range pts {
		if p.GC && p.GCRuns > 0 {
			sawGCRun = true
		}
		if !p.GC && p.GCRuns != 0 {
			t.Fatalf("pristine run performed GC: %+v", p)
		}
	}
	if !sawGCRun {
		t.Fatal("fragmented runs never triggered GC")
	}
	// GC must cost bandwidth for each scheduler at at least one point.
	type key struct {
		chips, kb int
		s         string
	}
	base := map[key]float64{}
	for _, p := range pts {
		if !p.GC {
			base[key{p.Chips, p.TransferKB, p.Scheduler}] = p.BandwidthKB
		}
	}
	degraded := 0
	for _, p := range pts {
		if p.GC && p.BandwidthKB < base[key{p.Chips, p.TransferKB, p.Scheduler}] {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("GC never degraded bandwidth")
	}
	if out := FormatFig17(pts); !strings.Contains(out, "Figure 17") {
		t.Fatal("FormatFig17 header missing")
	}
}
