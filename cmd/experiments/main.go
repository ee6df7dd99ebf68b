// Command experiments regenerates the tables and figures of the paper's
// evaluation (§5).
//
// Usage:
//
//	experiments -fig all            # everything (minutes at full scale)
//	experiments -fig 10a -scale 0.2 # one figure, scaled down
//	experiments -fig table1
//
// Figures sharing the 5-scheduler × 16-workload sweep (6, 10a-d, 11a/b,
// 13, 14, summary) run it once and slice it.
package main

import (
	"flag"
	"fmt"
	"strings"

	"sprinkler/internal/cliutil"
	"sprinkler/internal/experiments"
)

func main() {
	app := cliutil.NewApp("experiments")
	defer app.Close()

	fig := flag.String("fig", "all", "figure to regenerate: table1, 1, 6, 10a, 10b, 10c, 10d, 11, 12, 13, 14, 15, 16, 17, burst, ablation, faults, summary, all")
	scale := flag.Float64("scale", 1.0, "experiment scale in (0,1]; smaller = faster")
	chips := flag.Int("chips", 64, "platform size for the per-workload evaluation")
	seed := flag.Uint64("seed", 0, "synthetic trace seed")
	workers := flag.Int("workers", 0, "concurrent sweep cells (0 = all CPU cores)")
	noreuse := flag.Bool("noreuse", false, "build a fresh device per sweep cell instead of recycling through the device arena (results are identical; useful for profiling construction cost)")
	saveState := flag.String("save-state", "", "precondition the evaluation platform to GC steady state once, write its warm state to this file, and exit")
	loadState := flag.String("load-state", "", "hydrate every evaluation cell from this warm-state snapshot (aged-drive evaluation at fresh-drive cost)")
	var faults cliutil.Platform
	faults.RegisterFaults(flag.CommandLine)
	profiles := app.ProfileFlags(flag.CommandLine)
	flag.Parse()

	// Profile teardown must run even on a failed run: app.Check routes
	// through the cleanups before exiting, so an aborted sweep still leaves
	// a usable CPU profile and a heap snapshot of the failure point.
	app.Check(profiles.Start())
	fail := app.Check

	opts := experiments.Options{Scale: *scale, Chips: *chips, Seed: *seed, Workers: *workers, NoReuse: *noreuse, Faults: faults.Faults(), LoadState: *loadState}
	if *saveState != "" {
		app.Check(experiments.SaveWarmState(opts, *saveState))
		fmt.Printf("warm state saved to %s\n", *saveState)
		return
	}
	want := strings.ToLower(*fig)
	has := func(names ...string) bool {
		if want == "all" {
			return true
		}
		for _, n := range names {
			if want == n {
				return true
			}
		}
		return false
	}

	if has("table1") {
		fmt.Println(experiments.Table1Report())
	}
	if has("1", "1a", "1b") {
		pts, err := experiments.RunFig1(opts)
		fail(err)
		fmt.Println(experiments.FormatFig1(pts))
	}

	needEval := has("6", "10a", "10b", "10c", "10d", "11", "11a", "11b", "13", "14", "summary")
	if needEval {
		ev, err := experiments.RunEvaluation(opts)
		fail(err)
		if has("6") {
			fmt.Println(ev.Fig6())
		}
		if has("10a") {
			fmt.Println(ev.Fig10a())
		}
		if has("10b") {
			fmt.Println(ev.Fig10b())
		}
		if has("10c") {
			fmt.Println(ev.Fig10c())
		}
		if has("10d") {
			fmt.Println(ev.Fig10d())
		}
		if has("11", "11a", "11b") {
			fmt.Println(ev.Fig11a())
			fmt.Println(ev.Fig11b())
		}
		if has("13") {
			fmt.Println(experiments.Fig13(ev))
		}
		if has("14") {
			fmt.Println(experiments.Fig14(ev))
		}
		if has("summary") {
			fmt.Println(ev.Summary())
		}
	}

	if has("12") {
		out, err := experiments.RunFig12(opts)
		fail(err)
		fmt.Println(out)
	}
	if has("15", "16") {
		pts, err := experiments.RunFig15(opts)
		fail(err)
		if has("15") {
			fmt.Println(experiments.FormatFig15(pts))
		}
		if has("16") {
			fmt.Println(experiments.FormatFig16(pts))
		}
	}
	if has("17") {
		pts, err := experiments.RunFig17(opts)
		fail(err)
		fmt.Println(experiments.FormatFig17(pts))
	}
	if has("burst") {
		pts, err := experiments.RunBurstiness(opts)
		fail(err)
		fmt.Println(experiments.FormatBurstiness(pts))
	}
	if has("ablation") {
		rows, err := experiments.RunAblation(opts)
		fail(err)
		fmt.Println(experiments.FormatAblation(rows))
	}
	if has("faults") {
		pts, err := experiments.RunFaultStudy(opts)
		fail(err)
		fmt.Println(experiments.FormatFaultStudy(pts))
	}
}
