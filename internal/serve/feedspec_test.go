package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"sprinkler"
)

// feedCase is one FeedSpec the stream pin covers. pinned marks a spec
// whose whole stream is frozen by its base stream's own Seed.
type feedCase struct {
	name   string
	spec   FeedSpec
	pinned bool
}

func ratio(f float64) *float64 { return &f }

// feedCases covers both base streams, every combinator alone and stacked,
// and base seeds that follow the feed or session seed against pinned
// ones.
func feedCases() []feedCase {
	wl := func(seed uint64) *WorkloadSpec {
		return &WorkloadSpec{Name: "msnfs1", Requests: 120, MaxPages: 32, Seed: seed}
	}
	return []feedCase{
		{"workload", FeedSpec{Workload: wl(0)}, false},
		{"workload-pinned", FeedSpec{Workload: wl(7)}, true},
		{"workload-infinite-limit", FeedSpec{Workload: &WorkloadSpec{Name: "hm0"}, Limit: 90}, false},
		{"fixed-random", FeedSpec{Fixed: &sprinkler.FixedSpec{Requests: 100, Pages: 4, Write: true}}, false},
		{"fixed-sequential", FeedSpec{Fixed: &sprinkler.FixedSpec{Requests: 100, Pages: 8, Sequential: true}}, false},
		{"fixed-pinned", FeedSpec{Fixed: &sprinkler.FixedSpec{Requests: 100, Pages: 2, Seed: 11}}, true},
		{"poisson", FeedSpec{Workload: wl(0), PoissonRate: 150_000}, false},
		{"zipf", FeedSpec{Workload: wl(0), ZipfTheta: 0.99}, false},
		{"read-ratio", FeedSpec{Workload: wl(0), ReadRatio: ratio(0.3)}, false},
		{"resize", FeedSpec{Fixed: &sprinkler.FixedSpec{Requests: 100, Pages: 1}, MinPages: 2, MaxPages: 16}, false},
		{"burst", FeedSpec{Workload: wl(0), BurstOnNS: 1_000_000, BurstOffNS: 3_000_000}, false},
		{"limit", FeedSpec{Workload: wl(0), Limit: 40}, false},
		{"feed-seed", FeedSpec{Workload: wl(0), ZipfTheta: 0.8, Seed: 99}, false},
		{"stacked", FeedSpec{
			Workload:    wl(0),
			PoissonRate: 200_000, ZipfTheta: 0.9, ReadRatio: ratio(0.7),
			MinPages: 1, MaxPages: 8, BurstOnNS: 500_000, BurstOffNS: 1_500_000, Limit: 100,
		}, false},
		{"pinned-poisson", FeedSpec{Workload: wl(5), PoissonRate: 200_000, Limit: 60}, false},
	}
}

// feedConfigs are the platforms the pin runs on: the default drive, whose
// logical space defaults to 90% of physical, and the daemon's gcStress
// shape, which sets LogicalPages explicitly.
func feedConfigs() map[string]sprinkler.Config {
	gc := sprinkler.DefaultConfig()
	gc.BlocksPerPlane = 24
	gc.PagesPerBlock = 64
	gc.LogicalPages = gc.TotalPages() * 85 / 100
	return map[string]sprinkler.Config{"default": sprinkler.DefaultConfig(), "gc-stress": gc}
}

// streamDigest hashes up to max requests of src, with the count and the
// bounded flag, into an FNV-64a digest.
func streamDigest(src sprinkler.Source, bounded bool, max int) string {
	h := fnv.New64a()
	n := 0
	for ; n < max; n++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		fmt.Fprintf(h, "%d,%t,%d,%d,%t;", r.ArrivalNS, r.Write, r.LPN, r.Pages, r.FUA)
	}
	return fmt.Sprintf("%016x/%d/%t", h.Sum64(), n, bounded)
}

// buildSourceDigests pins the request stream buildSource produces for
// every feed case on every platform, built with session seed 42.
var buildSourceDigests = map[string]string{
	"default/burst":                     "ab574ac7ba2fa8eb/120/true",
	"default/feed-seed":                 "6858466f8014f134/120/true",
	"default/fixed-pinned":              "3529bc957b4a206a/100/true",
	"default/fixed-random":              "e377e87fe264bbb9/100/true",
	"default/fixed-sequential":          "02dffbd367950123/100/true",
	"default/limit":                     "bb06e027e4cb2071/40/true",
	"default/pinned-poisson":            "d6a8165e190bce00/60/true",
	"default/poisson":                   "310912c789cad369/120/true",
	"default/read-ratio":                "d8a704d1f822398e/120/true",
	"default/resize":                    "abcbd709886fe7fd/100/true",
	"default/stacked":                   "7f799d214c86004f/100/true",
	"default/workload":                  "a5f2a5ad21345333/120/true",
	"default/workload-infinite-limit":   "06e9dfa75429b77b/90/true",
	"default/workload-pinned":           "33027a8809d92dba/120/true",
	"default/zipf":                      "b567a04169bb5e45/120/true",
	"gc-stress/burst":                   "cb3cd585578c2c69/120/true",
	"gc-stress/feed-seed":               "7c6caf17e6feb270/120/true",
	"gc-stress/fixed-pinned":            "09f4152abf22e144/100/true",
	"gc-stress/fixed-random":            "923318c6c12af2e9/100/true",
	"gc-stress/fixed-sequential":        "02dffbd367950123/100/true",
	"gc-stress/limit":                   "c79695bef10f9294/40/true",
	"gc-stress/pinned-poisson":          "304c91be16887704/60/true",
	"gc-stress/poisson":                 "ddb40e676e588ca3/120/true",
	"gc-stress/read-ratio":              "9dc04c5dc63c0554/120/true",
	"gc-stress/resize":                  "6d577f517c69f2b0/100/true",
	"gc-stress/stacked":                 "df09e0ed123d2112/100/true",
	"gc-stress/workload":                "e52cf318eb0036c9/120/true",
	"gc-stress/workload-infinite-limit": "70b6ad36b2ac80da/90/true",
	"gc-stress/workload-pinned":         "fc7d3a09f26823eb/120/true",
	"gc-stress/zipf":                    "b393d147524ad6e5/120/true",
}

// TestBuildSourceStreamsPinned: the daemon's feed builder emits the same
// requests for a given spec, config and seed across commits, and a base
// stream with its own Seed ignores the session seed.
func TestBuildSourceStreamsPinned(t *testing.T) {
	for cfgName, cfg := range feedConfigs() {
		for _, tc := range feedCases() {
			key := cfgName + "/" + tc.name
			build := func(seed uint64) string {
				src, bounded, err := tc.spec.buildSource(cfg, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				return streamDigest(src, bounded, 500)
			}
			got := build(42)
			if want := buildSourceDigests[key]; got != want {
				t.Errorf("%s: stream digest %s, want %s", key, got, want)
			}
			if tc.pinned && build(1234) != got {
				t.Errorf("%s: pinned base stream changed with the session seed", key)
			}
		}
	}
}

// FuzzFeedSpec decodes untrusted feed JSON the way the daemon does and
// feeds the built source into a session on a small platform: no input may
// panic, exhaust memory, or admit more than the 64 requests asked for.
func FuzzFeedSpec(f *testing.F) {
	for _, seed := range []string{
		`{"workload":{"name":"msnfs1","requests":50}}`,
		`{"workload":{"name":"hm0","seed":7},"limit":20}`,
		`{"fixed":{"requests":30,"pages":4,"write":true}}`,
		`{"fixed":{"requests":30,"pages":8,"sequential":true,"seed":3}}`,
		`{"workload":{"name":"cfs0"},"poissonRate":150000,"count":10}`,
		`{"workload":{"name":"cfs0","requests":40},"zipfTheta":0.99}`,
		`{"workload":{"name":"cfs0","requests":40},"readRatio":0.3}`,
		`{"fixed":{"requests":40,"pages":1},"minPages":2,"maxPages":16}`,
		`{"workload":{"name":"cfs0","requests":40},"burstOnNS":1000000,"burstOffNS":3000000}`,
		`{"workload":{"name":"msnfs1"},"poissonRate":2e5,"zipfTheta":0.9,"readRatio":0.7,"minPages":1,"maxPages":8,"burstOnNS":500000,"burstOffNS":1500000,"limit":100,"seed":9}`,
		`{"fixed":{"requests":4,"pages":1073741824,"sequential":true}}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := testOptions().BaseConfig
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec FeedSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		src, _, err := spec.buildSource(cfg, 1)
		if err != nil {
			return
		}
		sess, err := sprinkler.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Discard()
		if fed, _ := sess.Feed(src, 64); fed > 64 {
			t.Fatalf("fed %d requests, asked for at most 64", fed)
		}
	})
}

// TestRequestWireNames pins the JSON names of the root types the daemon
// decodes submit and feed bodies into: each literal sets every field,
// must decode (unknown keys refused) to the listed value, and that value
// must encode back to the literal's exact bytes.
func TestRequestWireNames(t *testing.T) {
	cases := []struct {
		body string
		into any
		want any
	}{
		{
			`{"requests":[{"arrivalNS":5,"write":true,"lpn":7,"pages":3,"fua":true}]}`,
			&SubmitRequest{},
			&SubmitRequest{Requests: []sprinkler.Request{{ArrivalNS: 5, Write: true, LPN: 7, Pages: 3, FUA: true}}},
		},
		{
			`{"workload":{"name":"cfs0","requests":10,"maxPages":8,"seed":3}}`,
			&FeedSpec{},
			&FeedSpec{Workload: &sprinkler.WorkloadSpec{Name: "cfs0", Requests: 10, MaxPages: 8, Seed: 3}},
		},
		{
			`{"fixed":{"requests":4,"pages":2,"write":true,"sequential":true,"seed":9}}`,
			&FeedSpec{},
			&FeedSpec{Fixed: &sprinkler.FixedSpec{Requests: 4, Pages: 2, Write: true, Sequential: true, Seed: 9}},
		},
	}
	for _, tc := range cases {
		dec := json.NewDecoder(strings.NewReader(tc.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tc.into); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if !reflect.DeepEqual(tc.into, tc.want) {
			t.Errorf("%s decodes to %+v, want %+v", tc.body, tc.into, tc.want)
		}
		if b, err := json.Marshal(tc.want); err != nil || string(b) != tc.body {
			t.Errorf("%+v encodes to %s (err %v), want %s", tc.want, b, err, tc.body)
		}
	}
}
