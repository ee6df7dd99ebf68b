// Command tracegen emits synthetic workload traces from the Table 1
// catalogue in the repository's CSV format (arrival_ns,op,lpn,pages),
// ready for replay with `sprinklersim -trace` or sprinkler.NewCSVSource.
// Workload-structure combinators — weighted mixes, Poisson arrivals,
// on/off burst envelopes, Zipf spatial skew, read-ratio rewrites — can be
// stacked onto the base workload so a generated CSV exercises them
// standalone.
//
// Usage:
//
//	tracegen -list
//	tracegen -workload msnfs1 -n 3000 > msnfs1.csv
//	tracegen -workload cfs3 -n 1000 -seed 7 -o cfs3.csv
//	tracegen -mix msnfs1:3,cfs0:1 -n 5000 > mixed.csv
//	tracegen -workload hm0 -n 10000 -poisson 150000 -burst-on 2000000 -burst-off 6000000 > bursty.csv
//	tracegen -workload proj1 -n 2000 -zipf 0.99 -read-frac 0.8 > skewed.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sprinkler"
	"sprinkler/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list catalogue workloads and exit")
	name := flag.String("workload", "", "Table 1 workload name (see -list)")
	mix := flag.String("mix", "", "weighted workload mix, e.g. msnfs1:3,cfs0:1 (overrides -workload)")
	n := flag.Int("n", 2000, "number of I/O requests")
	seed := flag.Uint64("seed", 0, "generator seed (0 = derived from the name)")
	out := flag.String("o", "", "output file (default stdout)")
	chips := flag.Int("chips", 64, "target platform chip count (sizes the address space)")
	poisson := flag.Float64("poisson", 0, "rewrite arrivals as open-loop Poisson at this rate (req/s; 0 = keep the generator's timeline)")
	burstOn := flag.Int64("burst-on", 0, "burst on-window in ns (with -burst-off; duty cycle = on/(on+off))")
	burstOff := flag.Int64("burst-off", 0, "burst off-gap in ns")
	zipf := flag.Float64("zipf", 0, "redraw addresses from a Zipf-like power law with this theta (0 = keep)")
	readFrac := flag.Float64("read-frac", -1, "redraw request directions: read with this probability (-1 = keep)")
	flag.Parse()

	if *list {
		fmt.Printf("%-8s %9s %9s %8s %8s %9s\n", "name", "readMB", "writeMB", "avgR(KB)", "avgW(KB)", "locality")
		for _, w := range trace.Table1() {
			fmt.Printf("%-8s %9d %9d %8.1f %8.1f %9s\n",
				w.Name, w.ReadMB, w.WriteMB, w.AvgReadKB(), w.AvgWriteKB(), w.TxnLocality)
		}
		return
	}
	if *n <= 0 {
		fail(fmt.Errorf("-n must be positive, got %d", *n))
	}

	cfg := sprinkler.Platform(*chips)
	src, err := baseSource(cfg, *name, *mix, *n, *seed)
	fail(err)
	span := cfg.LogicalSpan()
	if *zipf > 0 {
		src, err = sprinkler.Zipf(src, *zipf, span, *seed)
		fail(err)
	}
	if *readFrac >= 0 {
		src, err = sprinkler.ReadRatio(src, *readFrac, *seed)
		fail(err)
	}
	if *poisson > 0 {
		src = sprinkler.Poisson(src, *poisson, *seed)
	}
	if *burstOn > 0 || *burstOff > 0 {
		src, err = sprinkler.Burst(src, *burstOn, *burstOff)
		fail(err)
	}
	reqs := make([]sprinkler.Request, 0, *n)
	for len(reqs) < *n {
		r, ok := src.Next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	fail(sprinklerErr(src))

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fail(err)
		defer f.Close()
		dst = f
	}
	fail(sprinkler.WriteCSV(dst, reqs))
}

// baseSource resolves the base stream: a single Table 1 workload of n
// requests, or a weighted mix of them (component i unbounded and built
// with SubSeed(seed, i), the mix capped at n).
func baseSource(cfg sprinkler.Config, name, mix string, n int, seed uint64) (sprinkler.Source, error) {
	if mix == "" {
		if name == "" {
			return nil, fmt.Errorf("need -workload or -mix (use -list)")
		}
		return cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: name, Requests: n, Seed: seed})
	}
	var items []sprinkler.Weighted
	for i, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		w, weight := part, 1.0
		if i := strings.LastIndex(part, ":"); i >= 0 {
			var err error
			if weight, err = strconv.ParseFloat(part[i+1:], 64); err != nil || weight <= 0 {
				return nil, fmt.Errorf("bad mix weight in %q", part)
			}
			w = part[:i]
		}
		if w == "" {
			return nil, fmt.Errorf("bad mix component %q", part)
		}
		src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: w, Seed: sprinkler.SubSeed(seed, i)})
		if err != nil {
			return nil, err
		}
		items = append(items, sprinkler.Weighted{Source: src, Weight: weight})
	}
	mixed, err := sprinkler.Mix(seed, items...)
	if err != nil {
		return nil, err
	}
	return sprinkler.Limit(mixed, int64(n)), nil
}

// sprinklerErr surfaces a source's terminal error, if any.
func sprinklerErr(src sprinkler.Source) error {
	if es, ok := src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}
