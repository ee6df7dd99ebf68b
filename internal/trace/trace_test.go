package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

func TestTable1Catalogue(t *testing.T) {
	ws := Table1()
	if len(ws) != 16 {
		t.Fatalf("catalogue has %d workloads, want 16", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if names[w.Name] {
			t.Fatalf("duplicate workload %q", w.Name)
		}
		names[w.Name] = true
		if w.ReadInsns+w.WriteInsns == 0 {
			t.Fatalf("%s has zero instructions", w.Name)
		}
		if w.ReadRandom < 0 || w.ReadRandom > 100 || w.WriteRandom < 0 || w.WriteRandom > 100 {
			t.Fatalf("%s randomness out of range", w.Name)
		}
	}
	for _, want := range []string{"cfs0", "hm1", "msnfs3", "proj4"} {
		if !names[want] {
			t.Fatalf("missing workload %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("msnfs1")
	if !ok || w.Name != "msnfs1" {
		t.Fatal("ByName failed for msnfs1")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName found a phantom workload")
	}
}

func TestAvgSizes(t *testing.T) {
	w, _ := ByName("cfs0")
	// 3607 MB over 406k reads ≈ 9.1 KB.
	if got := w.AvgReadKB(); got < 8 || got > 10 {
		t.Fatalf("cfs0 AvgReadKB = %.1f, want ~9", got)
	}
	if got := w.ReadFraction(); got < 0.7 || got > 0.8 {
		t.Fatalf("cfs0 ReadFraction = %.2f, want ~0.75", got)
	}
	var zero Workload
	if zero.AvgReadKB() != 0 || zero.AvgWriteKB() != 0 || zero.ReadFraction() != 0 {
		t.Fatal("zero workload should report zero stats")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w, _ := ByName("cfs3")
	cfg := GenConfig{Instructions: 200, LogicalPages: 1 << 20}
	a, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 200 {
		t.Fatalf("lengths %d/%d, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Pages != b[i].Pages ||
			a[i].Kind != b[i].Kind || a[i].Arrival != b[i].Arrival {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	for _, w := range Table1() {
		ios, err := Generate(w, GenConfig{Instructions: 300, LogicalPages: 1 << 18})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var last int64 = -1
		for _, io := range ios {
			if io.Start < 0 || int64(io.Start)+int64(io.Pages) > 1<<18 {
				t.Fatalf("%s: out-of-range request %v", w.Name, io)
			}
			if io.Pages < 1 || io.Pages > 1024 {
				t.Fatalf("%s: bad length %d", w.Name, io.Pages)
			}
			if int64(io.Arrival) < last {
				t.Fatalf("%s: arrivals not monotone", w.Name)
			}
			last = int64(io.Arrival)
		}
	}
}

func TestGenerateReadWriteMix(t *testing.T) {
	w, _ := ByName("msnfs0") // overwhelmingly writes (41k reads vs 1467k writes)
	ios, err := Generate(w, GenConfig{Instructions: 2000, LogicalPages: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, io := range ios {
		if io.Kind == req.Write {
			writes++
		}
	}
	if frac := float64(writes) / float64(len(ios)); frac < 0.85 {
		t.Fatalf("msnfs0 write fraction %.2f, want > 0.85", frac)
	}
}

func TestGenerateHighLocalityAlignment(t *testing.T) {
	w, _ := ByName("cfs3") // High locality
	cfg := GenConfig{Instructions: 64, LogicalPages: 1 << 20, AlignStride: 64}
	ios, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Within the first burst, consecutive starts differ by the stride.
	aligned := 0
	for i := 1; i < 16 && i < len(ios); i++ {
		if ios[i].Start-ios[i-1].Start == 64 {
			aligned++
		}
	}
	if aligned < 8 {
		t.Fatalf("high-locality burst alignment weak: %d/15 strides", aligned)
	}
}

func TestGenerateRequiresLogicalPages(t *testing.T) {
	if _, err := Generate(Table1()[0], GenConfig{}); err == nil {
		t.Fatal("accepted zero LogicalPages")
	}
}

// generateFixed drains a FixedStream for cfg.
func generateFixed(cfg FixedConfig) ([]Record, error) {
	g, err := NewFixedStream(cfg)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for rec, ok := g.NextRecord(); ok; rec, ok = g.NextRecord() {
		recs = append(recs, rec)
	}
	return recs, nil
}

// parseAll reads a whole CSV stream through a Reader.
func parseAll(r io.Reader) ([]Record, error) {
	rd := NewReader(r)
	var recs []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

func TestGenerateFixedSequential(t *testing.T) {
	recs, err := generateFixed(FixedConfig{Count: 10, Pages: 4, Kind: req.Read, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("generated %d requests, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LPN != req.LPN(i*4) || r.Pages != 4 || r.Kind != req.Read {
			t.Fatalf("sequential layout broken at %d: %+v", i, r)
		}
		if r.Arrival != 0 {
			t.Fatal("closed-loop arrivals must be zero")
		}
	}
}

func TestGenerateFixedRandomBounds(t *testing.T) {
	recs, err := generateFixed(FixedConfig{Count: 500, Pages: 8, Kind: req.Write, LogicalPages: 4096, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.LPN < 0 || int64(r.LPN)+int64(r.Pages) > 4096 {
			t.Fatalf("random request out of range: %+v", r)
		}
	}
}

func TestGenerateFixedValidation(t *testing.T) {
	if _, err := NewFixedStream(FixedConfig{Count: 0, Pages: 1}); err == nil {
		t.Fatal("accepted zero count")
	}
	if _, err := NewFixedStream(FixedConfig{Count: 1, Pages: 64, LogicalPages: 8}); err == nil {
		t.Fatal("accepted logical space smaller than one request")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	w, _ := ByName("proj3")
	g, err := NewStream(w, GenConfig{Instructions: 150, LogicalPages: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for rec, ok := g.NextRecord(); ok; rec, ok = g.NextRecord() {
		recs = append(recs, rec)
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := parseAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d -> %d", len(recs), len(back))
	}
	for i := range recs {
		if recs[i] != back[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, recs[i], back[i])
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"1,2,3",    // field count
		"x,R,0,1",  // arrival
		"0,Q,0,1",  // op
		"0,R,-1,1", // lpn
		"0,R,0,0",  // pages
		"0,R,0,x",  // pages parse
		"-5,W,0,1", // negative arrival

		// A second line longer than the scanner's 1 MB buffer.
		"0,R,0,1\n" + strings.Repeat("9", 1<<20),
	}
	for _, line := range bad {
		_, err := parseAll(strings.NewReader(line))
		if err == nil {
			t.Errorf("accepted malformed line %.40q", line)
			continue
		}
		if !strings.HasPrefix(err.Error(), "trace: line ") {
			t.Errorf("error for %.40q does not name the line: %v", line, err)
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n100,R,5,2\n  \n200,W,9,1\n"
	recs, err := parseAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[0].Kind != req.Read || recs[1].Kind != req.Write {
		t.Fatal("ops parsed wrong")
	}
}

func TestLocalityString(t *testing.T) {
	if Low.String() != "Low" || Medium.String() != "Medium" || High.String() != "High" {
		t.Fatal("locality labels wrong")
	}
}

// Property: CSV round trip preserves arbitrary valid records.
func TestCSVRoundTripProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		var recs []Record
		for _, v := range raw {
			recs = append(recs, Record{
				Arrival: sim.Time(v),
				Kind:    req.Kind(v % 2),
				LPN:     req.LPN(v % 100000),
				Pages:   1 + int(v%256),
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		back, err := parseAll(&buf)
		if err != nil {
			return false
		}
		if len(back) != len(recs) {
			return false
		}
		for i := range recs {
			if recs[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
