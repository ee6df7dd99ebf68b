package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"sprinkler"
)

// A run builds its workload's state minSetups times, and keeps going up to
// maxSetups while the set-ups have taken less than setupBudget, so that a
// cheap set-up still yields a steady median. setup_s is the median; only
// the last state is kept.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = time.Second
)

// workload is one benchmark scenario. The harness calls close and then
// setup several times, then warmup once, then measure for each pass.
type workload interface {
	// setup builds the workload's state from scratch; close has dropped
	// any earlier state. Spans go to tr when it is not nil.
	setup(ctx context.Context, tr *tracer) error
	// warmup runs untimed work, normally one repetition. Its results are
	// the references later repetitions are checked against and the source
	// of the simulated (sim_*) metrics.
	warmup(ctx context.Context, ck *checker) error
	// measure repeats the workload's unit of work until d has elapsed.
	measure(ctx context.Context, d time.Duration, tr *tracer, ck *checker) (*pass, error)
	// refs returns the warm-up results the simulated metrics pool.
	refs() []*sprinkler.Result
	// sources builds, afresh, every workload source one repetition drains.
	sources() ([]sprinkler.Source, error)
	// info returns extra human-readable facts about the pass p.
	info(p *pass) []string
	close()
}

// workloadNames lists the workloads in the order a full run visits them.
var workloadNames = []string{"pristine-read", "aged-write", "sweep", "daemon"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "pristine-read":
		return pristineRead(o), nil
	case "aged-write":
		return agedWrite(o), nil
	case "sweep":
		return newSweep(o), nil
	case "daemon":
		return newDaemon(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// pass is what one measured pass observed.
type pass struct {
	wall  time.Duration
	ios   int64     // simulated host I/Os completed
	ops   int64     // the workload's unit of work: I/Os, cells or sessions
	rates []float64 // I/O/s of each repetition; empty when ios/wall is the rate
	calls []call    // every blocking call the client made
	layer map[string]float64
}

// call is one blocking call and how long its caller waited.
type call struct {
	name string
	d    time.Duration
}

// ioRate is the pass's I/O throughput: the median over repetitions when the
// pass has them, otherwise completed I/Os over the pass's wall time.
func (p *pass) ioRate() float64 {
	if len(p.rates) > 0 {
		return median(p.rates)
	}
	return float64(p.ios) / p.wall.Seconds()
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports (-trace 0). Every
// workload reports every one of them; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ios_per_s", "I/O/s"},
	{"request_p50_ms", "ms"},
	{"request_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"sim_bandwidth_mbps", "MB/s"},
	{"sim_avg_latency_ms", "ms"},
	{"sim_chip_utilization", "fraction"},
	{"sim_flp_degree", "mem-req/txn"},
	{"sim_write_amplification", "ratio"},
}

// cpuLayers maps the simulator's packages to their cpu.* metric. The
// serving packages, net/http, encoding/json and the Go runtime are matched
// by cpuMetric; everything else counts as cpu.other.
var cpuLayers = map[string]string{
	"sprinkler":                       "cpu.sprinkler",
	"sprinkler/internal/sim":          "cpu.sim",
	"sprinkler/internal/core":         "cpu.core",
	"sprinkler/internal/sched":        "cpu.sched",
	"sprinkler/internal/flash":        "cpu.flash",
	"sprinkler/internal/bus":          "cpu.bus",
	"sprinkler/internal/nvmhc":        "cpu.nvmhc",
	"sprinkler/internal/req":          "cpu.req",
	"sprinkler/internal/ftl":          "cpu.ftl",
	"sprinkler/internal/ssd":          "cpu.ssd",
	"sprinkler/internal/metrics":      "cpu.metrics",
	"sprinkler/internal/trace":        "cpu.trace",
	"sprinkler/internal/serve":        "cpu.serve",
	"sprinkler/internal/serve/client": "cpu.serve",
	"encoding/json":                   "cpu.encoding_json",
}

// perLayer are the metrics a traced run reports (-trace 1). A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"cpu.sim", "fraction"},
	{"cpu.core", "fraction"},
	{"cpu.sched", "fraction"},
	{"cpu.flash", "fraction"},
	{"cpu.bus", "fraction"},
	{"cpu.nvmhc", "fraction"},
	{"cpu.req", "fraction"},
	{"cpu.ftl", "fraction"},
	{"cpu.ssd", "fraction"},
	{"cpu.sprinkler", "fraction"},
	{"cpu.metrics", "fraction"},
	{"cpu.trace", "fraction"},
	{"cpu.serve", "fraction"},
	{"cpu.net_http", "fraction"},
	{"cpu.encoding_json", "fraction"},
	{"cpu.runtime", "fraction"},
	{"cpu.other", "fraction"},

	{"sprinkler.new_ms", "ms"},
	{"sprinkler.reset_ms", "ms"},
	{"sprinkler.run_ms", "ms"},
	{"sprinkler.precondition_ms", "ms"},
	{"sprinkler.checkpoint_ms", "ms"},
	{"sprinkler.read_snapshot_ms", "ms"},
	{"sprinkler.hydrate_ms", "ms"},
	{"sprinkler.snapshot_bytes", "bytes"},
	{"sprinkler.runner_sweep_ms", "ms"},
	{"sprinkler.arena_device_hits", "count"},
	{"sprinkler.arena_device_misses", "count"},
	{"sprinkler.arena_source_hits", "count"},
	{"sprinkler.arena_source_misses", "count"},

	{"trace.gen_ns_per_req", "ns"},
	{"trace.overhead_frac", "fraction"},

	{"serve.open_ms_p50", "ms"},
	{"serve.open_ms_p99", "ms"},
	{"serve.feed_ms_p50", "ms"},
	{"serve.feed_ms_p99", "ms"},
	{"serve.advance_ms_p50", "ms"},
	{"serve.advance_ms_p99", "ms"},
	{"serve.drain_ms_p50", "ms"},
	{"serve.drain_ms_p99", "ms"},
	{"serve.requests_per_session", "calls"},
	{"serve.rejected_total", "count"},
	{"serve.arena_device_hits", "count"},
	{"serve.server_cpu_frac", "fraction"},

	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "fraction"},

	{"flash.transactions", "count"},
	{"flash.pal0_share", "fraction"},
	{"flash.pal1_share", "fraction"},
	{"flash.pal2_share", "fraction"},
	{"flash.pal3_share", "fraction"},
	{"flash.intra_chip_idleness", "fraction"},
	{"flash.memory_level_idleness", "fraction"},
	{"flash.cell_op_frac", "fraction"},
	{"bus.op_frac", "fraction"},
	{"bus.contention_frac", "fraction"},
	{"nvmhc.queue_stall_frac", "fraction"},
	{"ssd.inter_chip_idleness", "fraction"},
	{"ssd.idle_frac", "fraction"},
	{"ftl.gc_runs", "count"},
	{"ftl.gc_page_moves", "count"},
	{"ftl.gc_erases", "count"},
	{"ftl.stale_retranslations", "count"},
	{"sim.simulated_s", "s"},
	{"sim.p99_latency_ms", "ms"},
	{"sched.spk3_vs_vas_iops", "ratio"},
	{"sched.spk3_vs_vas_latency", "ratio"},
}

// report is one run's outcome; its JSON form is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints one line per metric and fact, then the JSON report as the
// last line.
func (r *report) write(w io.Writer, name string) error {
	var b bytes.Buffer
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(&b, "%s %s %.6g %s\n", name, d.name, m.Value, m.Unit)
			}
		}
	}
	for _, s := range r.info {
		fmt.Fprintf(&b, "%s %s\n", name, s)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = w.Write(b.Bytes())
	return err
}

// runWorkload runs the workload o names and assembles its report.
func runWorkload(ctx context.Context, o options) (*report, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	ck := newChecker()
	var setups []float64
	for start := time.Now(); len(setups) < minSetups || len(setups) < maxSetups && time.Since(start) < setupBudget; {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.warmup(ctx, ck); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		d /= 2 // the traced pass takes the other half
	}
	runtime.GC()
	before := readRuntime()
	plain, err := w.measure(ctx, d, nil, ck)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	after := readRuntime()

	rep := &report{Metrics: map[string]metric{}}
	rep.info = append(rep.info, w.info(plain)...)
	rep.info = append(rep.info, fmt.Sprintf("sim_digest %016x", digestAll(w.refs())))
	if o.trace == 0 {
		rep.setEndToEnd(setups, plain, w.refs())
	} else {
		runtime.GC()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced, err := w.measure(ctx, d, tr, ck)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, fmt.Errorf("traced measure: %w", err)
		}
		shares, serverFrac, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		gen, err := genNsPerReq(w)
		if err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := tr.writeChrome(o.traceOut); err != nil {
				return nil, err
			}
		}
		rep.setPerLayer(perLayerInputs{
			plain: plain, traced: traced, tr: tr, shares: shares,
			serverFrac: serverFrac, rt: after.since(before), gen: gen, refs: w.refs(),
		})
	}
	ck.finish(rep)
	for _, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("a metric is not finite: %+v", rep.Metrics)
		}
	}
	return rep, nil
}

// setEndToEnd fills the untraced run's metrics.
func (r *report) setEndToEnd(setups []float64, p *pass, refs []*sprinkler.Result) {
	lat := make([]float64, len(p.calls))
	for i, c := range p.calls {
		lat[i] = float64(c.d) / 1e6
	}
	sim := pool(refs)
	vals := map[string]float64{
		"setup_s":                 median(setups),
		"ios_per_s":               p.ioRate(),
		"request_p50_ms":          quantile(lat, 0.50),
		"request_p99_ms":          quantile(lat, 0.99),
		"peak_rss_mb":             peakRSSMB(),
		"sim_bandwidth_mbps":      sim.bandwidthMBps,
		"sim_avg_latency_ms":      sim.avgLatencyMs,
		"sim_chip_utilization":    sim.chipUtil,
		"sim_flp_degree":          sim.flpDegree,
		"sim_write_amplification": sim.writeAmp,
	}
	for _, d := range endToEnd {
		r.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	r.info = append(r.info,
		fmt.Sprintf("request_samples %d (setup runs %d, setup_s each %s)", len(lat), len(setups), fmtFloats(setups)))
}

// perLayerInputs gathers what the traced run measured.
type perLayerInputs struct {
	plain, traced *pass
	tr            *tracer
	shares        map[string]float64
	serverFrac    float64
	rt            runtimeDelta
	gen           float64
	refs          []*sprinkler.Result
}

// setPerLayer fills the traced run's metrics.
func (r *report) setPerLayer(in perLayerInputs) {
	vals := map[string]float64{}
	for k, v := range in.shares {
		vals[k] = v
	}
	for _, name := range []string{"new", "reset", "run", "precondition", "checkpoint", "read_snapshot", "hydrate", "runner_sweep"} {
		vals["sprinkler."+name+"_ms"] = median(in.tr.durationsMs("sprinkler." + name))
	}
	for k, v := range in.traced.layer {
		vals[k] = v
	}
	byName := map[string][]float64{}
	for _, c := range in.traced.calls {
		byName[c.name] = append(byName[c.name], float64(c.d)/1e6)
	}
	if len(byName["open"]) > 0 { // the daemon: its ops are sessions
		for _, ep := range []string{"open", "feed", "advance", "drain"} {
			vals["serve."+ep+"_ms_p50"] = quantile(byName[ep], 0.50)
			vals["serve."+ep+"_ms_p99"] = quantile(byName[ep], 0.99)
		}
		vals["serve.requests_per_session"] = float64(len(in.traced.calls)) / float64(max(in.traced.ops, 1))
		vals["serve.server_cpu_frac"] = in.serverFrac
	}
	vals["trace.gen_ns_per_req"] = in.gen
	vals["trace.overhead_frac"] = in.plain.ioRate()/in.traced.ioRate() - 1
	ops := float64(in.plain.ops)
	vals["runtime.allocs_per_op"] = in.rt.allocs / ops
	vals["runtime.bytes_per_op"] = in.rt.bytes / ops
	vals["runtime.gc_cycles"] = in.rt.gcCycles
	if in.rt.cpu > 0 {
		vals["runtime.gc_cpu_frac"] = in.rt.gcCPU / in.rt.cpu
	}
	for k, v := range pool(in.refs).layer() {
		vals[k] = v
	}
	for _, d := range perLayer {
		r.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
}

// checker counts checked operations and compares each result against the
// reference digest recorded for its key (the warm-up's, normally).
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	digests   map[string]uint64
	errs      []string
}

func newChecker() *checker { return &checker{digests: map[string]uint64{}} }

// op counts one operation; err non-nil marks it failed.
func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// check validates res, which ran want host I/Os, and compares its digest
// with the first one recorded under key.
func (c *checker) check(key string, res *sprinkler.Result, want int64) error {
	if res == nil {
		return fmt.Errorf("%s: no result", key)
	}
	if res.IOsCompleted != want {
		return fmt.Errorf("%s: %d of %d I/Os completed", key, res.IOsCompleted, want)
	}
	if res.FailedIOs != 0 {
		return fmt.Errorf("%s: %d I/Os failed", key, res.FailedIOs)
	}
	e := res.Exec
	if sum := e.BusOp + e.BusContention + e.CellOp + e.Idle; math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%s: execution breakdown sums to %.12f, not 1", key, sum)
	}
	for _, f := range []float64{
		res.ChipUtilization, res.InterChipIdleness, res.IntraChipIdleness, res.MemoryLevelIdleness,
		res.QueueStallFraction, e.BusOp, e.BusContention, e.CellOp, e.Idle,
	} {
		if f < 0 || f > 1 || math.IsNaN(f) {
			return fmt.Errorf("%s: a utilization or fraction is %g, outside [0, 1]", key, f)
		}
	}
	d := digest(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.digests[key]
	if !ok {
		c.digests[key] = d
		return nil
	}
	if d != ref {
		return fmt.Errorf("%s: result digest %016x differs from the reference %016x", key, d, ref)
	}
	return nil
}

// finish copies the counts into the report.
func (c *checker) finish(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Attempted, r.Failed = c.attempted, c.failed
	r.Correct = c.failed == 0 && c.attempted > 0
	r.info = append(r.info, fmt.Sprintf("error_rate %g (%d failed of %d checked operations)",
		float64(c.failed)/math.Max(1, float64(c.attempted)), c.failed, c.attempted))
	for _, e := range c.errs {
		r.info = append(r.info, "check failed: "+e)
	}
}

// digest is the FNV-1a hash of a result's JSON encoding.
func digest(res *sprinkler.Result) uint64 {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // Result holds only numbers, strings and bools
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// digestAll folds the digests of results, in order.
func digestAll(rs []*sprinkler.Result) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		fmt.Fprintf(h, "%016x", digest(r))
	}
	return h.Sum64()
}

// pooled aggregates simulated results: counts add up, fractions are
// weighted by simulated time, latencies by completed I/Os and FLP by memory
// requests.
type pooled struct {
	bandwidthMBps, avgLatencyMs, chipUtil, flpDegree, writeAmp float64
	rs                                                         []*sprinkler.Result
}

func pool(rs []*sprinkler.Result) pooled {
	var dur, ios, bytes, lat, util, mem, txns, wa, written float64
	for _, r := range rs {
		d := float64(r.DurationNS)
		dur += d
		ios += float64(r.IOsCompleted)
		bytes += float64(r.BytesRead + r.BytesWritten)
		lat += float64(r.AvgLatencyNS) * float64(r.IOsCompleted)
		util += r.ChipUtilization * d
		mem += r.AvgFLPDegree * float64(r.Transactions)
		txns += float64(r.Transactions)
		wa += r.WriteAmplification * float64(r.BytesWritten)
		written += float64(r.BytesWritten)
	}
	p := pooled{rs: rs, writeAmp: 1}
	if dur > 0 {
		p.bandwidthMBps = bytes / (1 << 20) / (dur / 1e9)
		p.chipUtil = util / dur
	}
	if ios > 0 {
		p.avgLatencyMs = lat / ios / 1e6
	}
	if txns > 0 {
		p.flpDegree = mem / txns
	}
	if written > 0 {
		p.writeAmp = wa / written
	}
	return p
}

// layer returns the modelled-hardware per-layer metrics.
func (p pooled) layer() map[string]float64 {
	m := map[string]float64{}
	var dur, ios, mem float64
	for _, r := range p.rs {
		d := float64(r.DurationNS)
		memReqs := r.AvgFLPDegree * float64(r.Transactions)
		dur += d
		ios += float64(r.IOsCompleted)
		mem += memReqs
		m["flash.transactions"] += float64(r.Transactions)
		for i, s := range r.FLPShares {
			m[fmt.Sprintf("flash.pal%d_share", i)] += s * memReqs
		}
		m["flash.intra_chip_idleness"] += r.IntraChipIdleness * d
		m["flash.memory_level_idleness"] += r.MemoryLevelIdleness * d
		m["flash.cell_op_frac"] += r.Exec.CellOp * d
		m["bus.op_frac"] += r.Exec.BusOp * d
		m["bus.contention_frac"] += r.Exec.BusContention * d
		m["nvmhc.queue_stall_frac"] += float64(r.QueueStallNS)
		m["ssd.inter_chip_idleness"] += r.InterChipIdleness * d
		m["ssd.idle_frac"] += r.Exec.Idle * d
		m["ftl.gc_runs"] += float64(r.GCRuns)
		m["ftl.gc_page_moves"] += float64(r.GCPageMoves)
		m["ftl.gc_erases"] += float64(r.GCErases)
		m["ftl.stale_retranslations"] += float64(r.StaleRetranslations)
		m["sim.p99_latency_ms"] += float64(r.P99LatencyNS) / 1e6 * float64(r.IOsCompleted)
	}
	div := func(keys []string, by float64) {
		for _, k := range keys {
			if by > 0 {
				m[k] /= by
			} else {
				m[k] = 0
			}
		}
	}
	div([]string{"flash.pal0_share", "flash.pal1_share", "flash.pal2_share", "flash.pal3_share"}, mem)
	div([]string{"flash.intra_chip_idleness", "flash.memory_level_idleness", "flash.cell_op_frac",
		"bus.op_frac", "bus.contention_frac", "nvmhc.queue_stall_frac", "ssd.inter_chip_idleness", "ssd.idle_frac"}, dur)
	div([]string{"sim.p99_latency_ms"}, ios)
	m["sim.simulated_s"] = dur / 1e9
	return m
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample [5]metrics.Sample

func readRuntime() *runtimeSample {
	var s runtimeSample
	for i, name := range []string{
		"/gc/heap/allocs:objects",
		"/gc/heap/allocs:bytes",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
	} {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return &s
}

// runtimeDelta is the difference between two readings.
type runtimeDelta struct{ allocs, bytes, gcCycles, gcCPU, cpu float64 }

func (s *runtimeSample) since(prev *runtimeSample) runtimeDelta {
	v := func(x metrics.Sample) float64 {
		if x.Value.Kind() == metrics.KindFloat64 {
			return x.Value.Float64()
		}
		return float64(x.Value.Uint64())
	}
	return runtimeDelta{
		allocs:   v(s[0]) - v(prev[0]),
		bytes:    v(s[1]) - v(prev[1]),
		gcCycles: v(s[2]) - v(prev[2]),
		gcCPU:    v(s[3]) - v(prev[3]),
		cpu:      v(s[4]) - v(prev[4]),
	}
}

// peakRSSMB is this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// genNsPerReq drains the workload's sources standalone, three times, and
// returns the median generation cost per request.
func genNsPerReq(w workload) (float64, error) {
	var per []float64
	for i := 0; i < 3; i++ {
		srcs, err := w.sources()
		if err != nil {
			return 0, err
		}
		n := 0
		t0 := time.Now()
		for _, s := range srcs {
			for _, ok := s.Next(); ok; _, ok = s.Next() {
				n++
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
	}
	return median(per), nil
}

// scaled multiplies n by scale, keeping at least 1.
func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

// median of xs; 0 when xs is empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ",")
}
