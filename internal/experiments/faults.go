package experiments

import (
	"context"
	"fmt"
	"sort"

	"sprinkler"
	"sprinkler/internal/metrics"
)

// Fault-injection degradation study: how gracefully each scheduler's
// bandwidth decays as per-operation flash failure rates climb, and where
// the drive tips into read-only degraded mode. Not a figure of the paper —
// the paper assumes fault-free flash — but the natural robustness
// companion to its §5.9 GC study: the same fragmented platform, with the
// fault model dialled up instead of the GC pressure.

// FaultPoint is one (scheduler, fault-rate) sample of the study.
type FaultPoint struct {
	Scheduler     string
	Rate          float64
	BandwidthKB   float64
	AvgLatencyNS  int64
	ReadRetries   int64
	ProgramFails  int64
	RetiredBlocks int64
	FailedIOs     int64
	Degraded      bool
}

// faultPlatform is the GC-stressed §5.9 platform with the retry ladder and
// a thin spare pool configured: erase failures retire blocks into the
// spares, so the highest rates push the drive toward degraded mode within
// the run.
func faultPlatform(o Options) sprinkler.Config {
	spec := o.Faults
	cfg := fig17Platform(o.Chips, o)
	if spec.ReadRetryMax == 0 {
		spec.ReadRetryMax = 4
	}
	if spec.ReadRetryMult == 0 {
		spec.ReadRetryMult = 2
	}
	if spec.RewriteMax == 0 {
		spec.RewriteMax = 4
	}
	if spec.SpareBlockFrac == 0 {
		spec.SpareBlockFrac = 0.1
	}
	cfg.Faults = spec
	return cfg
}

// RunFaultStudy sweeps schedulers × fault rates on the fragmented
// platform: a read/write mix over a preconditioned device, every cell
// replaying the identical trace, with the FaultRates axis scaling the
// read, program and erase failure probabilities together. opts.Faults
// seeds the ladder/spare shape (zero fields take the study defaults).
func RunFaultStudy(opts Options) ([]FaultPoint, error) {
	opts = opts.Defaults()
	schedulers := []string{"VAS", "PAS", "SPK3"}
	rates := []float64{0, 1e-4, 1e-3, 1e-2, 5e-2}
	if opts.Scale < 0.5 {
		rates = []float64{0, 1e-3, 5e-2}
	}
	requests := opts.scaled(8000, 600)

	cells := sprinkler.Grid{
		Name:       "faults",
		Base:       faultPlatform(opts),
		Schedulers: schedulerKinds(schedulers),
		FaultRates: rates,
		Precondition: &sprinkler.Precondition{
			FillFrac: 0.95, ChurnFrac: 0.5, Seed: opts.Seed,
		},
		Sources: []sprinkler.SourceSpec{{
			Label: "rw-mix",
			New: func(cfg sprinkler.Config, seed uint64) (sprinkler.Source, error) {
				writes, err := cfg.NewFixedSource(sprinkler.FixedSpec{
					Requests: requests,
					Pages:    4,
					Write:    true,
					Seed:     seed,
				})
				if err != nil {
					return nil, err
				}
				// 30% reads exercise the retry ladder while writes keep
				// the GC (and therefore erase-fault) pressure on.
				return sprinkler.ReadRatio(writes, 0.3, seed)
			},
		}},
	}.Cells()

	rateByLabel := make(map[string]float64, len(rates))
	for _, r := range rates {
		rateByLabel[fmt.Sprintf("fr=%g", r)] = r
	}
	var points []FaultPoint
	for _, cr := range opts.runner().Run(context.Background(), cells) {
		if cr.Err != nil {
			return nil, cr.Err
		}
		points = append(points, FaultPoint{
			Scheduler:     cr.Labels["scheduler"],
			Rate:          rateByLabel[cr.Labels["fault_rate"]],
			BandwidthKB:   cr.Result.BandwidthKBps,
			AvgLatencyNS:  cr.Result.AvgLatencyNS,
			ReadRetries:   cr.Result.ReadRetries,
			ProgramFails:  cr.Result.ProgramFails,
			RetiredBlocks: cr.Result.RetiredBlocks,
			FailedIOs:     cr.Result.FailedIOs,
			Degraded:      cr.Result.DegradedMode,
		})
	}
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Scheduler != points[j].Scheduler {
			return points[i].Scheduler < points[j].Scheduler
		}
		return points[i].Rate < points[j].Rate
	})
	return points, nil
}

// FormatFaultStudy renders the degradation table: one row per
// (scheduler, rate), bandwidth relative to that scheduler's fault-free row
// so the decay reads directly.
func FormatFaultStudy(points []FaultPoint) string {
	baseline := map[string]float64{}
	for _, p := range points {
		if p.Rate == 0 {
			baseline[p.Scheduler] = p.BandwidthKB
		}
	}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rel := "-"
		if b := baseline[p.Scheduler]; b > 0 {
			rel = fmt.Sprintf("%.1f%%", 100*p.BandwidthKB/b)
		}
		degraded := ""
		if p.Degraded {
			degraded = "READ-ONLY"
		}
		rows = append(rows, []string{
			p.Scheduler,
			fmt.Sprintf("%g", p.Rate),
			fmt.Sprintf("%.0f", p.BandwidthKB),
			rel,
			fmt.Sprintf("%.3f", float64(p.AvgLatencyNS)/1e6),
			fmt.Sprintf("%d", p.ReadRetries),
			fmt.Sprintf("%d", p.ProgramFails),
			fmt.Sprintf("%d", p.RetiredBlocks),
			fmt.Sprintf("%d", p.FailedIOs),
			degraded,
		})
	}
	return "Fault-injection degradation (schedulers × failure rates, fragmented device)\n" +
		metrics.Table([]string{
			"sched", "rate", "KB/s", "vs 0", "ms", "retries", "pgmFail", "retired", "failedIO", "mode",
		}, rows)
}
