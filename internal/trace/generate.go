package trace

import (
	"fmt"
	"hash/fnv"

	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// GenConfig parameterizes synthetic trace generation.
type GenConfig struct {
	// Instructions is the number of I/O requests to generate (the
	// workload's read/write mix splits it). Generate defaults it to 2000;
	// a Stream treats <= 0 as unbounded.
	Instructions int

	// LogicalPages bounds generated addresses. Required.
	LogicalPages int64

	// PageSize in bytes converts the workload's KB sizes to pages.
	// Default 2048.
	PageSize int

	// MaxPages caps one request's length (the paper notes request sizes
	// range "from several bytes to an MB"). Default 1024 pages (2 MB).
	MaxPages int

	// AlignStride is the address stride between burst members for
	// high-locality workloads; pointing it at the SSD's stripe width
	// (chips × planes) makes burst members land on the same chips with
	// plane-sharing-compatible offsets. Default 64.
	AlignStride int64

	// IntraBurstGap and InterBurstGap shape arrival timing. Defaults:
	// 1 µs within a burst, 30 µs mean between bursts.
	IntraBurstGap sim.Time
	InterBurstGap sim.Time

	// Seed overrides the name-derived generator seed when non-zero.
	Seed uint64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.PageSize <= 0 {
		c.PageSize = 2048
	}
	if c.MaxPages <= 0 {
		c.MaxPages = 1024
	}
	if c.AlignStride <= 0 {
		c.AlignStride = 64
	}
	if c.IntraBurstGap <= 0 {
		c.IntraBurstGap = 1 * sim.Microsecond
	}
	if c.InterBurstGap <= 0 {
		c.InterBurstGap = 30 * sim.Microsecond
	}
	return c
}

// burstLen maps transactional locality to how many requests arrive
// back-to-back with correlated addresses.
func burstLen(l Locality) int {
	switch l {
	case High:
		return 16
	case Medium:
		return 8
	default:
		return 3
	}
}

// Stream synthesizes a workload one request at a time in O(1) memory.
// A Stream built with Instructions <= 0 never runs dry (infinite open-loop
// feeds); a bounded Stream emits exactly Instructions requests and then
// reports exhaustion. Generation is deterministic: the same workload and
// config always produce the same sequence, and a bounded Stream emits
// exactly what Generate materializes for the same inputs.
type Stream struct {
	cfg GenConfig
	w   Workload
	rng *sim.Rand

	limit int // <= 0 means unbounded

	readPages  int
	writePages int
	readFrac   float64
	burst      int

	emitted int64
	now     sim.Time
	// Sequential cursors for the non-random fraction of each direction.
	seqRead  req.LPN
	seqWrite req.LPN

	// Current burst: correlated addresses around a region base.
	started bool
	b       int // member index within the burst
	isRead  bool
	base    req.LPN
}

// NewStream builds an incremental generator for the workload.
// cfg.Instructions <= 0 makes the stream unbounded.
func NewStream(w Workload, cfg GenConfig) (*Stream, error) {
	cfg = cfg.withDefaults()
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("trace: LogicalPages required")
	}
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(w.Name))
		seed = h.Sum64()
	}
	g := &Stream{
		cfg:        cfg,
		w:          w,
		rng:        sim.NewRand(seed),
		limit:      cfg.Instructions,
		readPages:  kbToPages(w.AvgReadKB(), cfg),
		writePages: kbToPages(w.AvgWriteKB(), cfg),
		readFrac:   w.ReadFraction(),
		burst:      burstLen(w.TxnLocality),
	}
	g.b = g.burst // force a fresh burst on the first Next
	return g, nil
}

// Next produces the next request as a host I/O object, or false when a
// bounded stream is done. Streaming consumers that only need the request
// parameters should use NextRecord, which allocates nothing.
func (g *Stream) Next() (*req.IO, bool) {
	id := g.emitted
	r, ok := g.NextRecord()
	if !ok {
		return nil, false
	}
	return req.NewIO(id, r.Kind, r.LPN, r.Pages, r.Arrival), true
}

// NextRecord produces the next request's parameters without materializing
// a req.IO — the allocation-free generation path behind streaming
// sources. The sequence is identical to Next's.
func (g *Stream) NextRecord() (Record, bool) {
	if g.limit > 0 && g.emitted >= int64(g.limit) {
		return Record{}, false
	}
	if g.b >= g.burst {
		if g.started {
			// Exponential-ish inter-burst gap in [0.5, 2]× the mean.
			g.now += g.cfg.InterBurstGap/2 + sim.Time(g.rng.Int63n(int64(g.cfg.InterBurstGap)*3/2))
		}
		g.started = true
		g.b = 0
		g.isRead = g.rng.Float64() < g.readFrac
		g.base = req.LPN(g.rng.Int63n(maxInt64(1, g.cfg.LogicalPages-int64(g.cfg.MaxPages)*int64(g.burst))))
	}

	kind := req.Write
	pages := g.writePages
	random := g.w.WriteRandom / 100
	if g.isRead {
		kind = req.Read
		pages = g.readPages
		random = g.w.ReadRandom / 100
	}
	pages = jitterPages(g.rng, pages, g.cfg.MaxPages)

	var start req.LPN
	switch {
	case g.w.TxnLocality == High:
		// Stride-aligned burst members: same chips, compatible
		// page offsets — high spatial transactional locality.
		start = g.base + req.LPN(int64(g.b)*g.cfg.AlignStride)
	case g.rng.Float64() < random:
		start = req.LPN(g.rng.Int63n(g.cfg.LogicalPages))
	default:
		// Sequential continuation.
		if kind == req.Read {
			start = g.seqRead
		} else {
			start = g.seqWrite
		}
	}
	start = clampLPN(start, pages, g.cfg.LogicalPages)
	if kind == req.Read {
		g.seqRead = start + req.LPN(pages)
	} else {
		g.seqWrite = start + req.LPN(pages)
	}

	rec := Record{Arrival: g.now, Kind: kind, LPN: start, Pages: pages}
	g.emitted++
	g.b++
	g.now += g.cfg.IntraBurstGap
	return rec, true
}

// Generate synthesizes the workload as a list of host I/O requests in
// arrival order. Generation is deterministic: the same workload and config
// always produce the same trace. cfg.Instructions defaults to 2000.
func Generate(w Workload, cfg GenConfig) ([]*req.IO, error) {
	if cfg.Instructions <= 0 {
		cfg.Instructions = 2000
	}
	g, err := NewStream(w, cfg)
	if err != nil {
		return nil, err
	}
	ios := make([]*req.IO, 0, cfg.Instructions)
	for {
		io, ok := g.Next()
		if !ok {
			return ios, nil
		}
		ios = append(ios, io)
	}
}

// kbToPages converts a mean KB size to whole pages with sane bounds.
func kbToPages(kb float64, cfg GenConfig) int {
	pages := int(kb * 1024 / float64(cfg.PageSize))
	if pages < 1 {
		pages = 1
	}
	if pages > cfg.MaxPages {
		pages = cfg.MaxPages
	}
	return pages
}

// jitterPages varies a mean length by ±50% to avoid degenerate uniformity.
func jitterPages(rng *sim.Rand, mean, max int) int {
	lo := mean / 2
	if lo < 1 {
		lo = 1
	}
	hi := mean + mean/2
	if hi > max {
		hi = max
	}
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

func clampLPN(start req.LPN, pages int, logical int64) req.LPN {
	if int64(start)+int64(pages) > logical {
		start = req.LPN(logical - int64(pages))
	}
	if start < 0 {
		start = 0
	}
	return start
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// FixedConfig describes a closed-loop fixed-transfer-size workload for the
// sensitivity sweeps (Figures 1, 15, 16, 17).
type FixedConfig struct {
	// Count is the number of I/O requests.
	Count int
	// Pages is the transfer size of each request in pages.
	Pages int
	// Kind selects reads or writes.
	Kind req.Kind
	// Sequential lays requests out back-to-back in LPN space; otherwise
	// offsets are uniform random over LogicalPages.
	Sequential bool
	// LogicalPages bounds random offsets (required unless Sequential).
	LogicalPages int64
	// Seed seeds the offset generator.
	Seed uint64
}

// FixedStream generates a fixed-transfer-size workload one request at a
// time in O(1) memory: Count same-size requests, all arriving at t=0
// (closed loop: the device-level queue's backpressure paces them).
type FixedStream struct {
	cfg FixedConfig
	rng *sim.Rand
	i   int
}

// NewFixedStream builds the incremental fixed-size generator.
func NewFixedStream(cfg FixedConfig) (*FixedStream, error) {
	if cfg.Count <= 0 || cfg.Pages <= 0 {
		return nil, fmt.Errorf("trace: fixed workload needs positive Count and Pages")
	}
	if !cfg.Sequential && cfg.LogicalPages < int64(cfg.Pages) {
		return nil, fmt.Errorf("trace: LogicalPages %d < request size %d", cfg.LogicalPages, cfg.Pages)
	}
	return &FixedStream{cfg: cfg, rng: sim.NewRand(cfg.Seed + 1)}, nil
}

// NextRecord produces the next request's parameters, or false once Count
// requests have been emitted.
func (g *FixedStream) NextRecord() (Record, bool) {
	if g.i >= g.cfg.Count {
		return Record{}, false
	}
	var start req.LPN
	if g.cfg.Sequential {
		start = req.LPN(int64(g.i) * int64(g.cfg.Pages))
		if g.cfg.LogicalPages > 0 {
			start = req.LPN(int64(start) % maxInt64(1, g.cfg.LogicalPages-int64(g.cfg.Pages)))
		}
	} else {
		start = req.LPN(g.rng.Int63n(g.cfg.LogicalPages - int64(g.cfg.Pages) + 1))
	}
	g.i++
	return Record{Kind: g.cfg.Kind, LPN: start, Pages: g.cfg.Pages}, true
}
