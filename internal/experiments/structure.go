package experiments

import (
	"context"
	"fmt"
	"strings"

	"sprinkler"
	"sprinkler/internal/metrics"
)

// This file is the workload-structure study: the paper's headline claim is
// that Sprinkler's win grows with workload diversity, and the combinator
// layer makes structure itself a sweep axis. The burstiness sweep holds
// the mean arrival rate fixed and squeezes the same request stream into
// ever-narrower on-windows, so the axis isolates arrival burstiness — the
// regime where request over-commitment (FARO) should absorb bursts that
// stall a conventional queue.

// BurstPoint is one (duty, scheduler) sample of the burstiness sweep.
type BurstPoint struct {
	// DutyPct is the on-window share of the arrival envelope in percent
	// (100 = smooth Poisson arrivals, 12.5 = the same mean rate compressed
	// into 1/8th of the timeline).
	DutyPct      float64
	Scheduler    string
	AvgLatencyMS float64
	P99LatencyMS float64
	BandwidthMB  float64
	Utilization  float64
}

// RunBurstiness sweeps arrival burstiness × scheduler at a fixed mean
// arrival rate: an msnfs1 stream is rewritten as open-loop Poisson
// arrivals at rate/duty inside on-windows of 2 ms, separated by off-gaps
// sized so every duty point delivers the same long-run request rate. The
// workload-structure axis is declared entirely as SourceSpec combinators
// (WithPoisson + WithBurst), so every scheduler replays the identical
// modulated trace per duty point.
func RunBurstiness(opts Options) ([]BurstPoint, error) {
	opts = opts.Defaults()
	n := opts.scaled(4000, 200)
	const meanRate = 150_000.0 // requests per simulated second
	const onNS = int64(2_000_000)
	duties := []float64{1, 0.5, 0.25, 0.125}

	base := sprinkler.WorkloadSpec{Name: "msnfs1", Requests: n, MaxPages: 64}.Spec()
	var sources []sprinkler.SourceSpec
	for _, duty := range duties {
		offNS := int64(float64(onNS)*(1/duty)) - onNS
		spec := base.WithPoisson(meanRate / duty)
		if offNS > 0 {
			spec = spec.WithBurst(onNS, offNS)
		}
		sources = append(sources, spec.Relabel(dutyLabel(duty)))
	}

	cfg := Platform(opts.Chips)
	cfg.MaxBacklog = 4096 // bursts back thousands of arrivals up; keep memory flat
	cells := sprinkler.Grid{
		Name:       "burst",
		Base:       cfg,
		Schedulers: schedulerKinds(SchedulerNames),
		Sources:    sources,
		Seed:       opts.Seed,
	}.Cells()

	var points []BurstPoint
	duty := map[string]float64{}
	for _, d := range duties {
		duty[dutyLabel(d)] = d * 100
	}
	for _, cr := range opts.runner().Run(context.Background(), cells) {
		if cr.Err != nil {
			return nil, cr.Err
		}
		points = append(points, BurstPoint{
			DutyPct:      duty[cr.Labels["workload"]],
			Scheduler:    cr.Labels["scheduler"],
			AvgLatencyMS: float64(cr.Result.AvgLatencyNS) / 1e6,
			P99LatencyMS: float64(cr.Result.P99LatencyNS) / 1e6,
			BandwidthMB:  cr.Result.BandwidthKBps / 1024,
			Utilization:  cr.Result.ChipUtilization,
		})
	}
	return points, nil
}

func dutyLabel(duty float64) string { return fmt.Sprintf("duty=%g%%", duty*100) }

// FormatBurstiness renders the sweep: per-scheduler average and tail
// latency against burst duty cycle at constant mean load.
func FormatBurstiness(points []BurstPoint) string {
	bySched := map[string]map[float64]BurstPoint{}
	var scheds []string
	var duties []float64
	seenS, seenD := map[string]bool{}, map[float64]bool{}
	for _, p := range points {
		if bySched[p.Scheduler] == nil {
			bySched[p.Scheduler] = map[float64]BurstPoint{}
		}
		bySched[p.Scheduler][p.DutyPct] = p
		if !seenS[p.Scheduler] {
			seenS[p.Scheduler] = true
			scheds = append(scheds, p.Scheduler)
		}
		if !seenD[p.DutyPct] {
			seenD[p.DutyPct] = true
			duties = append(duties, p.DutyPct)
		}
	}
	var b strings.Builder
	render := func(title string, cell func(BurstPoint) string) {
		header := []string{"duty%"}
		header = append(header, scheds...)
		var rows [][]string
		for _, d := range duties {
			row := []string{fmtF(d, 1)}
			for _, s := range scheds {
				row = append(row, cell(bySched[s][d]))
			}
			rows = append(rows, row)
		}
		b.WriteString(title + "\n")
		b.WriteString(metrics.Table(header, rows))
	}
	render("Burstiness sweep: average latency (ms) vs arrival duty cycle at constant mean rate", func(p BurstPoint) string {
		return fmtF(p.AvgLatencyMS, 3)
	})
	b.WriteString("\n")
	render("Burstiness sweep: P99 latency (ms)", func(p BurstPoint) string {
		return fmtF(p.P99LatencyMS, 3)
	})
	b.WriteString("\n")
	render("Burstiness sweep: chip utilization (%)", func(p BurstPoint) string {
		return fmtF(100*p.Utilization, 1)
	})
	return b.String()
}
