package sprinkler_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sprinkler"
)

// smallConfig shrinks the platform for fast public-API tests.
func smallConfig(kind sprinkler.SchedulerKind) sprinkler.Config {
	cfg := sprinkler.DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChan = 4
	cfg.BlocksPerPlane = 64
	cfg.PagesPerBlock = 32
	cfg.Scheduler = kind
	return cfg
}

// TestCSVRoundTrip writes a generated workload as CSV, streams it back
// through NewCSVSource, and replays it on a device — the whole loop on
// the public API.
func TestCSVRoundTrip(t *testing.T) {
	cfg := smallConfig(sprinkler.SPK3)
	reqs, err := cfg.GenerateWorkload("cfs0", 120, 7)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sprinkler.WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}

	// Parse back and compare field-for-field.
	src := sprinkler.NewCSVSource(bytes.NewReader(buf.Bytes()))
	var parsed []sprinkler.Request
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		parsed = append(parsed, r)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(reqs) {
		t.Fatalf("round trip lost requests: %d != %d", len(parsed), len(reqs))
	}
	for i := range reqs {
		want := reqs[i]
		want.FUA = false // the CSV format does not carry FUA
		if parsed[i] != want {
			t.Fatalf("request %d changed in round trip: %+v != %+v", i, parsed[i], want)
		}
	}

	// Replay the CSV stream through a device.
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Run(context.Background(), sprinkler.NewCSVSource(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != int64(len(reqs)) {
		t.Fatalf("replayed %d/%d I/Os", res.IOsCompleted, len(reqs))
	}
}

// TestCSVSourceError surfaces a malformed line as a run error.
func TestCSVSourceError(t *testing.T) {
	dev, err := sprinkler.New(smallConfig(sprinkler.SPK3))
	if err != nil {
		t.Fatal(err)
	}
	csv := "0,R,0,4\n100,X,8,4\n"
	_, err = dev.Run(context.Background(), sprinkler.NewCSVSource(strings.NewReader(csv)))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
}

// FuzzCSVSource feeds arbitrary bytes to the CSV trace parser, the one
// workload input that arrives from outside the program as a file. No
// input may panic. A parse failure must stop the stream for good and leave
// an error naming the line, and every request that did parse must survive
// a WriteCSV → NewCSVSource round trip unchanged.
func FuzzCSVSource(f *testing.F) {
	reqs, err := smallConfig(sprinkler.SPK3).GenerateWorkload("cfs0", 20, 3)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sprinkler.WriteCSV(&buf, reqs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		"",
		"# arrival_ns,op,lpn,pages\n\n  \n",
		"0,R,0,4\n100,w,8,2\r\n",
		"0,R,0\n",
		"0,R,0,4,5\n",
		"x,W,1,1\n",
		"-1,W,1,1\n",
		"1,Q,2,3\n",
		"5,R,-1,2\n",
		"5,R,1,0\n",
		"5,R,1,99999999999999999999\n",
		"0,R,9223372036854775803,8\n",
		"0,R,0,4\n1,R,1,1\nbad\n2,W,2,2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := sprinkler.NewCSVSource(bytes.NewReader(data))
		var parsed []sprinkler.Request
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			if r.ArrivalNS < 0 || r.LPN < 0 || r.Pages <= 0 || r.FUA {
				t.Fatalf("parser emitted an out-of-range request %+v", r)
			}
			parsed = append(parsed, r)
		}
		perr := src.Err()
		if perr != nil && !strings.HasPrefix(perr.Error(), "trace: line ") {
			t.Fatalf("parse error does not name the line: %v", perr)
		}
		if _, ok := src.Next(); ok {
			t.Fatal("stream resumed after it ended")
		}
		if src.Err() != perr {
			t.Fatalf("error changed after the stream ended: %v then %v", perr, src.Err())
		}

		var out bytes.Buffer
		if err := sprinkler.WriteCSV(&out, parsed); err != nil {
			t.Fatal(err)
		}
		again := sprinkler.NewCSVSource(bytes.NewReader(out.Bytes()))
		for i, want := range parsed {
			got, ok := again.Next()
			if !ok {
				t.Fatalf("round trip lost request %d of %d: %v", i, len(parsed), again.Err())
			}
			if got != want {
				t.Fatalf("request %d changed in round trip: %+v != %+v", i, got, want)
			}
		}
		if extra, ok := again.Next(); ok {
			t.Fatalf("round trip added request %+v", extra)
		}
		if err := again.Err(); err != nil {
			t.Fatalf("round trip of parsed requests failed: %v", err)
		}
	})
}

// TestWorkloadSourceMatchesGenerate checks the incremental generator and
// the materializing wrapper emit the identical sequence.
func TestWorkloadSourceMatchesGenerate(t *testing.T) {
	cfg := smallConfig(sprinkler.SPK3)
	reqs, err := cfg.GenerateWorkload("msnfs1", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "msnfs1", Requests: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		r, ok := src.Next()
		if !ok {
			if i != len(reqs) {
				t.Fatalf("stream ended at %d, slice has %d", i, len(reqs))
			}
			return
		}
		if i >= len(reqs) {
			t.Fatalf("stream longer than slice (%d)", len(reqs))
		}
		if r != reqs[i] {
			t.Fatalf("request %d differs: %+v != %+v", i, r, reqs[i])
		}
	}
}

// TestInfiniteWorkloadSourceWithLimit bounds an unbounded generator.
func TestInfiniteWorkloadSourceWithLimit(t *testing.T) {
	cfg := smallConfig(sprinkler.VAS)
	gen, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "hm0", Requests: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := sprinkler.Limit(gen, 75)
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 75 {
		t.Fatalf("Limit(75) emitted %d", n)
	}
	// The underlying generator keeps going: it was infinite.
	if _, ok := gen.Next(); !ok {
		t.Fatal("unbounded generator ran dry")
	}
}

// TestPoissonArrivals rewrites arrivals as a strictly monotone open-loop
// process at roughly the requested rate.
func TestPoissonArrivals(t *testing.T) {
	cfg := smallConfig(sprinkler.VAS)
	gen, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "cfs0", Requests: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 50_000.0
	src := sprinkler.Poisson(gen, rate, 42)
	var last int64 = -1
	n := 0
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if r.ArrivalNS < last {
			t.Fatalf("arrivals went backwards: %d after %d", r.ArrivalNS, last)
		}
		last = r.ArrivalNS
		n++
	}
	if n != 1000 {
		t.Fatalf("Poisson dropped requests: %d", n)
	}
	gotRate := float64(n-1) / (float64(last) / 1e9)
	if gotRate < rate/2 || gotRate > rate*2 {
		t.Fatalf("mean rate %.0f req/s, want ~%.0f", gotRate, rate)
	}
}

// TestConfigValidate checks descriptive errors for degenerate configs.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		mutate func(*sprinkler.Config)
		want   string
	}{
		{func(c *sprinkler.Config) { c.Channels = 0 }, "Channels"},
		{func(c *sprinkler.Config) { c.ChipsPerChan = -1 }, "ChipsPerChan"},
		{func(c *sprinkler.Config) { c.DiesPerChip = 0 }, "DiesPerChip"},
		{func(c *sprinkler.Config) { c.PlanesPerDie = 0 }, "PlanesPerDie"},
		{func(c *sprinkler.Config) { c.PlanesPerDie = 33 }, "PlanesPerDie = 33 exceeds the limit of 32"},
		{func(c *sprinkler.Config) { c.BlocksPerPlane = 0 }, "BlocksPerPlane"},
		{func(c *sprinkler.Config) { c.PagesPerBlock = 0 }, "PagesPerBlock"},
		{func(c *sprinkler.Config) { c.PageSize = 0 }, "PageSize"},
		{func(c *sprinkler.Config) { c.QueueDepth = 0 }, "QueueDepth"},
		{func(c *sprinkler.Config) { c.QueueDepth = -3 }, "QueueDepth"},
		{func(c *sprinkler.Config) { c.LogicalPages = -1 }, "LogicalPages"},
		{func(c *sprinkler.Config) { c.LogicalPages = 1 << 60 }, "physical"},
		{func(c *sprinkler.Config) { c.Scheduler = "nope" }, "scheduler"},
		{func(c *sprinkler.Config) { c.Allocation = "nope" }, "allocation"},
		{func(c *sprinkler.Config) { c.GCFreeTarget = -1 }, "GCFreeTarget"},
		{func(c *sprinkler.Config) { c.SeriesWindow = -1 }, "SeriesWindow"},
		{func(c *sprinkler.Config) { c.Faults.ReadFailProb = 1.5 }, "ReadFailProb"},
		{func(c *sprinkler.Config) { c.Faults.RewriteMax = -1 }, "RewriteMax"},
		{func(c *sprinkler.Config) { c.Faults.OutageDurNS = 100 }, "without OutagePeriodNS"},
		{func(c *sprinkler.Config) { c.Faults.OutagePeriodNS, c.Faults.OutageDurNS = 100, 100 }, "shorter than"},
		{func(c *sprinkler.Config) { c.Faults.SpareBlockFrac = 1 }, "SpareBlockFrac"},
		// Spares that leave GC too few usable blocks: the FTL's own rule.
		{func(c *sprinkler.Config) {
			*c = sprinkler.Platform(4)
			c.BlocksPerPlane = 24
			c.Faults.SpareBlockFrac = 0.9
		}, "leaves 3 usable blocks"},
	}
	for _, tc := range cases {
		cfg := sprinkler.DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Validate() = %v, want mention of %q", err, tc.want)
		}
		// New and Open must reject the same configs.
		if _, err := sprinkler.New(cfg); err == nil {
			t.Fatalf("New accepted config invalid for %q", tc.want)
		}
		if _, err := sprinkler.Open(cfg); err == nil {
			t.Fatalf("Open accepted config invalid for %q", tc.want)
		}
	}
	if err := sprinkler.DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

// TestRunContextCancellation cancels a run mid-stream and checks the
// partial measurements come back with the context error.
func TestRunContextCancellation(t *testing.T) {
	cfg := smallConfig(sprinkler.SPK3)
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gen, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "msnfs1", Requests: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The source cancels the context itself after 500 requests — a
	// deterministic mid-run cancellation.
	src := &cancellingSource{Source: gen, after: 500, cancel: cancel}
	res, err := dev.Run(ctx, src)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.IOsCompleted == 0 {
		t.Fatal("cancelled run completed no I/Os before stopping")
	}
	if src.emitted < 500 {
		t.Fatalf("source stopped early: %d", src.emitted)
	}
}

type cancellingSource struct {
	sprinkler.Source
	after   int
	emitted int
	cancel  context.CancelFunc
}

func (s *cancellingSource) Next() (sprinkler.Request, bool) {
	if s.emitted == s.after {
		s.cancel()
	}
	s.emitted++
	return s.Source.Next()
}
