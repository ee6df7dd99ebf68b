package sprinkler

import (
	"fmt"
	"io"
	"math"

	"sprinkler/internal/req"
	"sprinkler/internal/sim"
	"sprinkler/internal/trace"
)

// Source supplies host I/O requests in arrival order, one at a time.
// Sources are how workloads reach a Device: a slice replay, a CSV trace
// file, a synthetic generator (possibly infinite), or an open-loop
// arrival wrapper. The device pulls the source one request ahead of the
// simulation clock, so the request stream itself needs O(1) memory no
// matter how long the workload is.
//
// A Source may additionally implement `Err() error`; Run and Session.Feed
// consult it once Next reports exhaustion, so scanning sources (CSV) can
// surface mid-stream failures.
type Source interface {
	// Next returns the next request and true, or false when the workload
	// is exhausted.
	Next() (Request, bool)
}

// errSource is the optional failure-reporting side of a Source.
type errSource interface{ Err() error }

// sourceErr extracts a source's terminal error, if it reports one.
func sourceErr(s Source) error {
	if es, ok := s.(errSource); ok {
		return es.Err()
	}
	return nil
}

// SubSeed derives the seed of the i-th child of a composite source from
// the composite's seed: build child i of a Mix or Phases with
// SubSeed(seed, i), so sibling children draw decorrelated streams from one
// cell seed.
func SubSeed(seed uint64, i int) uint64 {
	s := (seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15)) * 0x2545F4914F6CDD1D
	if s == 0 {
		s = 1
	}
	return s
}

// SliceSource replays a fully materialized request list.
func SliceSource(requests []Request) Source {
	return &sliceSource{reqs: requests}
}

type sliceSource struct {
	reqs []Request
	i    int
}

func (s *sliceSource) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// Limit caps a source at n requests. A non-positive n yields an empty
// source. Use it to take a measurable slice of an infinite generator.
func Limit(src Source, n int64) Source {
	return &limitSource{src: src, left: n}
}

type limitSource struct {
	src  Source
	left int64
}

func (s *limitSource) Next() (Request, bool) {
	if s.left <= 0 {
		return Request{}, false
	}
	s.left--
	return s.src.Next()
}

func (s *limitSource) Err() error { return sourceErr(s.src) }

// CSVSource streams requests from a CSV trace (arrival_ns,op,lpn,pages;
// '#' comments), parsing one line per Next call — a multi-gigabyte trace
// file replays in constant memory. Check Err after the run; Device.Run
// does so automatically.
type CSVSource struct {
	rd  *trace.Reader
	err error
}

// NewCSVSource wraps an io.Reader producing the repository's CSV trace
// format.
func NewCSVSource(r io.Reader) *CSVSource {
	return &CSVSource{rd: trace.NewReader(r)}
}

// Next implements Source.
func (s *CSVSource) Next() (Request, bool) {
	if s.err != nil {
		return Request{}, false
	}
	rec, err := s.rd.Next()
	if err == io.EOF {
		return Request{}, false
	}
	if err != nil {
		s.err = err
		return Request{}, false
	}
	return Request{
		ArrivalNS: int64(rec.Arrival),
		Write:     rec.Kind == req.Write,
		LPN:       int64(rec.LPN),
		Pages:     rec.Pages,
	}, true
}

// Err reports the first parse failure, or nil.
func (s *CSVSource) Err() error { return s.err }

// WriteCSV emits requests in the CSV trace format read by NewCSVSource.
func WriteCSV(w io.Writer, requests []Request) error {
	recs := make([]trace.Record, len(requests))
	for i, r := range requests {
		kind := req.Read
		if r.Write {
			kind = req.Write
		}
		recs[i] = trace.Record{
			Arrival: simTime(r.ArrivalNS),
			Kind:    kind,
			LPN:     req.LPN(r.LPN),
			Pages:   r.Pages,
		}
	}
	return trace.Write(w, recs)
}

// WorkloadSpec parameterizes a synthetic Table 1 workload source.
type WorkloadSpec struct {
	// Name picks the Table 1 workload (see Workloads()).
	Name string `json:"name"`
	// Requests bounds the stream; <= 0 makes it infinite (wrap with
	// Limit, cancel the run's context, or drive it in session windows).
	Requests int `json:"requests,omitempty"`
	// MaxPages caps one request's length in pages (default 1024).
	MaxPages int `json:"maxPages,omitempty"`
	// Seed perturbs generation; 0 derives a stable seed from Name.
	Seed uint64 `json:"seed,omitempty"`
}

// NewWorkloadSource builds an incremental generator for a named Table 1
// workload, sized for this configuration's logical space. Generation is
// deterministic and O(1) in memory, so the stream may be unbounded.
func (c Config) NewWorkloadSource(spec WorkloadSpec) (Source, error) {
	w, ok := trace.ByName(spec.Name)
	if !ok {
		return nil, fmt.Errorf("sprinkler: unknown workload %q (see Workloads())", spec.Name)
	}
	icfg, err := c.internal()
	if err != nil {
		return nil, err
	}
	g, err := trace.NewStream(w, trace.GenConfig{
		Instructions: spec.Requests,
		LogicalPages: icfg.Geo.TotalPages() * 9 / 10,
		PageSize:     icfg.Geo.PageSize,
		MaxPages:     spec.MaxPages,
		AlignStride:  int64(icfg.Geo.NumChips()),
		Seed:         spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &streamSource{g: g}, nil
}

type streamSource struct {
	g *trace.Stream
}

func (s *streamSource) Next() (Request, bool) {
	rec, ok := s.g.NextRecord()
	if !ok {
		return Request{}, false
	}
	return Request{
		ArrivalNS: int64(rec.Arrival),
		Write:     rec.Kind == req.Write,
		LPN:       int64(rec.LPN),
		Pages:     rec.Pages,
	}, true
}

// FixedSpec describes a fixed-transfer-size workload for sensitivity
// sweeps: Requests same-size requests, sequential or uniformly random
// over the logical space, all arriving at t=0 (closed loop — the
// device-level queue's backpressure paces the host).
type FixedSpec struct {
	Requests   int    `json:"requests"`
	Pages      int    `json:"pages,omitempty"`
	Write      bool   `json:"write,omitempty"`
	Sequential bool   `json:"sequential,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
}

// NewFixedSource builds a closed-loop fixed-size source sized for this
// configuration's logical space. The source generates incrementally (O(1)
// memory however many requests).
func (c Config) NewFixedSource(spec FixedSpec) (Source, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	kind := req.Read
	if spec.Write {
		kind = req.Write
	}
	g, err := trace.NewFixedStream(trace.FixedConfig{
		Count:        spec.Requests,
		Pages:        spec.Pages,
		Kind:         kind,
		Sequential:   spec.Sequential,
		LogicalPages: c.LogicalSpan(),
		Seed:         spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &fixedSource{g: g}, nil
}

type fixedSource struct {
	g *trace.FixedStream
}

func (s *fixedSource) Next() (Request, bool) {
	rec, ok := s.g.NextRecord()
	if !ok {
		return Request{}, false
	}
	return Request{
		ArrivalNS: int64(rec.Arrival),
		Write:     rec.Kind == req.Write,
		LPN:       int64(rec.LPN),
		Pages:     rec.Pages,
	}, true
}

// Poisson turns any source into an open-loop arrival process: request
// contents pass through unchanged while arrival times are rewritten as a
// Poisson process with the given mean rate (requests per simulated
// second). This decouples submission from completion — the paper's
// heavy-traffic regime, where the host does not wait for the device.
func Poisson(src Source, requestsPerSec float64, seed uint64) Source {
	return &poissonSource{src: src, rate: requestsPerSec, rng: sim.NewRand(seed + 0x9E37)}
}

type poissonSource struct {
	src  Source
	rate float64
	rng  *sim.Rand
	now  float64 // next arrival, in ns
}

func (s *poissonSource) Next() (Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return Request{}, false
	}
	r.ArrivalNS = int64(s.now)
	if s.rate > 0 {
		// Exponential inter-arrival with mean 1/rate seconds.
		u := s.rng.Float64()
		s.now += -math.Log(1-u) / s.rate * 1e9
	}
	return r, true
}

func (s *poissonSource) Err() error { return sourceErr(s.src) }

// ioPool recycles retired request objects. The device hands each host
// I/O back (SetIORetire) once it has fully completed and left every
// internal structure; the next admission reuses it via req.IO.Reset, so
// steady-state streaming performs zero per-request heap allocations —
// the request working set is bounded by the peak in-flight count, not
// the workload length.
type ioPool struct {
	free []*req.IO
}

// ioPoolMax bounds retained free objects. In-flight requests are bounded
// by the device queue plus the admission backlog, so the pool rarely
// grows past a few hundred; the cap just keeps a pathological burst from
// pinning memory forever.
const ioPoolMax = 4096

// maxRequestPages bounds one request's length. An admitted request costs
// about 120 B per page, so an unbounded length from an untrusted trace or
// client could exhaust memory; no built-in workload emits more than 2048
// pages.
const maxRequestPages = 1 << 16

// maxSimTimeNS is sim.Horizon in nanoseconds: no arrival or
// Session.Advance may pass it.
const maxSimTimeNS = int64(sim.Horizon)

// build converts one public request, validating it, recycling a retired
// I/O when one is available.
func (p *ioPool) build(id int64, r Request) (*req.IO, error) {
	if r.Pages <= 0 {
		return nil, fmt.Errorf("sprinkler: request %d has %d pages", id, r.Pages)
	}
	if r.Pages > maxRequestPages {
		return nil, fmt.Errorf("sprinkler: request %d has %d pages, more than the limit of %d", id, r.Pages, maxRequestPages)
	}
	if r.LPN < 0 {
		return nil, fmt.Errorf("sprinkler: request %d has negative LPN %d", id, r.LPN)
	}
	if r.LPN > math.MaxInt64-int64(r.Pages) {
		return nil, fmt.Errorf("sprinkler: request %d at LPN %d with %d pages overflows the LPN range (LPN + pages > %d)", id, r.LPN, r.Pages, int64(math.MaxInt64))
	}
	if r.ArrivalNS < 0 {
		return nil, fmt.Errorf("sprinkler: request %d has negative arrival %d ns", id, r.ArrivalNS)
	}
	if r.ArrivalNS > maxSimTimeNS {
		return nil, fmt.Errorf("sprinkler: request %d arrives at %d ns, past the simulated-time horizon of %d ns", id, r.ArrivalNS, int64(maxSimTimeNS))
	}
	kind := req.Read
	if r.Write {
		kind = req.Write
	}
	var io *req.IO
	if n := len(p.free); n > 0 {
		io = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		io.Reset(id, kind, req.LPN(r.LPN), r.Pages, simTime(r.ArrivalNS))
	} else {
		io = req.NewIO(id, kind, req.LPN(r.LPN), r.Pages, simTime(r.ArrivalNS))
	}
	io.FUA = r.FUA
	return io, nil
}

// put returns a retired I/O to the pool (the device's SetIORetire hook).
func (p *ioPool) put(io *req.IO) {
	if len(p.free) < ioPoolMax {
		p.free = append(p.free, io)
	}
}

// ioAdapter bridges a public Source to the internal device feed: it
// assigns sequential IDs, validates each request, recycles retired
// request objects, and records the source's terminal error so Run can
// surface it.
type ioAdapter struct {
	src  Source
	next int64
	err  error
	pool ioPool
}

func (a *ioAdapter) Next() (*req.IO, bool) {
	r, ok := a.src.Next()
	if !ok {
		a.err = sourceErr(a.src)
		return nil, false
	}
	io, err := a.pool.build(a.next, r)
	if err != nil {
		a.err = err
		return nil, false
	}
	a.next++
	return io, true
}
