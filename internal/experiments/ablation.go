package experiments

import (
	"fmt"
	"strings"

	"sprinkler"
	"sprinkler/internal/core"
	"sprinkler/internal/ftl"
	"sprinkler/internal/metrics"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
	"sprinkler/internal/ssd"
	"sprinkler/internal/trace"
)

// internalPlatform mirrors sprinkler.Platform on the internal config type,
// for the ablation's non-public scheduler knobs.
func internalPlatform(chips int) ssd.Config {
	pub := sprinkler.Platform(chips)
	cfg := ssd.DefaultConfig()
	cfg.Geo.Channels = pub.Channels
	cfg.Geo.ChipsPerChan = pub.ChipsPerChan
	cfg.Geo.BlocksPerPlane = pub.BlocksPerPlane
	cfg.Geo.PagesPerBlock = pub.PagesPerBlock
	return cfg
}

// cloneIOs regenerates request objects (IOs carry mutable state and cannot
// be replayed across devices).
func cloneIOs(ios []*req.IO) []*req.IO {
	out := make([]*req.IO, len(ios))
	for i, io := range ios {
		c := req.NewIO(io.ID, io.Kind, io.Start, io.Pages, io.Arrival)
		c.FUA = io.FUA
		out[i] = c
	}
	return out
}

// Ablation isolates the design choices DESIGN.md calls out:
//
//   - over-commitment depth (FARO's Slots knob);
//   - FARO's overlap-depth/connectivity priority versus plain FIFO
//     commitment at the same depth;
//   - the flash controller's transaction-type decision window;
//   - the FTL page-allocation scheme underneath Sprinkler.
//
// Each row reports bandwidth, average FLP degree and intra-chip idleness
// on one mixed workload.
type AblationRow struct {
	Name        string
	BandwidthKB float64
	FLPDegree   float64
	IntraIdle   float64
	Latency     sim.Time
}

// RunAblation executes the four studies on the cfs4 workload (high
// transactional locality, mixed read/write — the regime where every knob
// matters).
func RunAblation(opts Options) ([]AblationRow, error) {
	opts = opts.Defaults()
	base := internalPlatform(opts.Chips)
	logical := base.Geo.TotalPages() * 9 / 10
	w, _ := trace.ByName("cfs4")
	ios, err := trace.Generate(w, trace.GenConfig{
		Instructions: opts.scaled(2000, 150),
		LogicalPages: logical,
		PageSize:     base.Geo.PageSize,
		AlignStride:  int64(base.Geo.NumChips()),
		Seed:         opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	run := func(name string, cfg ssd.Config, s sched.Scheduler) (AblationRow, error) {
		dev, err := ssd.New(cfg, s)
		if err != nil {
			return AblationRow{}, err
		}
		res, err := dev.Run(&ssd.SliceSource{IOs: cloneIOs(ios)})
		if err != nil {
			return AblationRow{}, fmt.Errorf("ablation %s: %w", name, err)
		}
		return AblationRow{
			Name:        name,
			BandwidthKB: res.BandwidthKBps(),
			FLPDegree:   res.AvgFLPDegree,
			IntraIdle:   res.IntraChipIdleness,
			Latency:     res.AvgLatency(),
		}, nil
	}

	var rows []AblationRow
	add := func(r AblationRow, err error) error {
		if err != nil {
			return err
		}
		rows = append(rows, r)
		return nil
	}

	// 1) Over-commitment depth sweep (RIOS + FARO, varying Slots).
	for _, slots := range []int{1, 2, 4, 8, 16, 32} {
		s := &core.Sprinkler{UseRIOS: true, UseFARO: true, Slots: slots, GroupCap: 48}
		if err := add(run(fmt.Sprintf("overcommit/slots=%d", slots), base, s)); err != nil {
			return nil, err
		}
	}

	// 2) FARO priority vs FIFO at the same depth.
	if err := add(run("priority/FARO(slots=16)", base, core.NewSPK3())); err != nil {
		return nil, err
	}
	noPrio := &core.Sprinkler{UseRIOS: true, UseFARO: false, Slots: 16, GroupCap: 48}
	if err := add(run("priority/FIFO(slots=16)", base, noPrio)); err != nil {
		return nil, err
	}

	// 3) Decision-window sweep.
	for _, win := range []sim.Time{500, 2 * sim.Microsecond, 8 * sim.Microsecond} {
		cfg := base
		cfg.Tim.DecisionWindow = win
		if err := add(run(fmt.Sprintf("window/%v", win), cfg, core.NewSPK3())); err != nil {
			return nil, err
		}
	}

	// 4) Page-allocation scheme under SPK3.
	for _, alloc := range []ftl.Allocation{ftl.AllocChannelFirst, ftl.AllocWayFirst, ftl.AllocPlaneFirst} {
		cfg := base
		cfg.Allocation = alloc
		if err := add(run("alloc/"+alloc.String(), cfg, core.NewSPK3())); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatAblation renders the study.
func FormatAblation(rows []AblationRow) string {
	header := []string{"configuration", "KB/s", "FLP degree", "intra-idle%", "avg lat"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			fmtF(r.BandwidthKB, 0),
			fmtF(r.FLPDegree, 2),
			fmtF(100*r.IntraIdle, 1),
			r.Latency.String(),
		})
	}
	var b strings.Builder
	b.WriteString("Ablation: Sprinkler design choices on cfs4\n")
	b.WriteString(metrics.Table(header, cells))
	return b.String()
}
