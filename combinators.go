package sprinkler

import (
	"fmt"
	"math"

	"sprinkler/internal/sim"
)

// This file is the workload combinator layer: deterministic
// transformations over any Source, composable into structured workloads —
// weighted mixes, phased regimes, bursty arrivals, skewed address
// distributions, and read-ratio / transfer-size modulation. A combinator's
// own random draws come from the seed it is built with, so a combined
// workload is a pure function of its seeds like the primitive sources.
// To sweep structure as a grid axis, compose them inside a SourceSpec's
// New, threading the cell seed into every seeded layer.

// Weighted pairs a source with its interleave weight for Mix.
type Weighted struct {
	Source Source
	Weight float64
}

// Mix interleaves sources by weighted random choice: each emission picks a
// source with probability proportional to its weight and forwards that
// source's next request. Arrival times are spliced — the emitted stream's
// clock advances by the chosen source's own inter-arrival gap — so each
// component's pacing shapes the merged timeline and arrivals stay
// monotone. A source that runs dry drops out of the draw; Mix is exhausted
// when every component is.
func Mix(seed uint64, items ...Weighted) (Source, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("sprinkler: Mix needs at least one source")
	}
	// The XOR decorrelates the choice stream from a child generator
	// built with the same seed.
	m := &mixSource{rng: sim.NewRand(seed ^ 0x6D69785F73656564)}
	for _, it := range items {
		if it.Source == nil {
			return nil, fmt.Errorf("sprinkler: Mix with nil source")
		}
		if it.Weight <= 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return nil, fmt.Errorf("sprinkler: Mix weight %v must be positive and finite", it.Weight)
		}
		m.items = append(m.items, mixItem{src: it.Source, weight: it.Weight})
	}
	return m, nil
}

type mixItem struct {
	src    Source
	weight float64
	last   int64 // the source's previous arrival, for delta splicing
	done   bool
}

type mixSource struct {
	items []mixItem
	rng   *sim.Rand
	clock int64
	err   error
}

func (m *mixSource) Next() (Request, bool) {
	for {
		total := 0.0
		for i := range m.items {
			if !m.items[i].done {
				total += m.items[i].weight
			}
		}
		if total == 0 {
			return Request{}, false
		}
		// Weighted draw over the still-live sources.
		pick := m.rng.Float64() * total
		idx := -1
		for i := range m.items {
			if m.items[i].done {
				continue
			}
			idx = i
			pick -= m.items[i].weight
			if pick < 0 {
				break
			}
		}
		it := &m.items[idx]
		r, ok := it.src.Next()
		if !ok {
			it.done = true
			if err := sourceErr(it.src); err != nil && m.err == nil {
				m.err = err
				return Request{}, false
			}
			continue
		}
		delta := r.ArrivalNS - it.last
		if delta < 0 {
			delta = 0
		}
		it.last = r.ArrivalNS
		m.clock += delta
		r.ArrivalNS = m.clock
		return r, true
	}
}

func (m *mixSource) Err() error { return m.err }

// Phase is one regime of a phased workload: a source plus the bounds that
// end the phase. Requests ends it after that many emissions; DurationNS
// ends it once the phase's own stream clock passes that time. Zero means
// unbounded in that dimension; a phase with both zero runs until its
// source is exhausted (make the last phase such, or bound the whole thing
// with Limit).
type Phase struct {
	Source     Source
	Requests   int64
	DurationNS int64
}

// Phases chains regimes back to back: phase i+1 starts where phase i's
// emitted timeline ended, with each phase's arrivals offset onto the
// running clock, so a workload can shift shape mid-run (e.g. a sequential
// warm fill followed by a random read storm).
func Phases(phases ...Phase) (Source, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("sprinkler: Phases needs at least one phase")
	}
	for _, p := range phases {
		if p.Source == nil {
			return nil, fmt.Errorf("sprinkler: Phases with nil source")
		}
		if p.Requests < 0 || p.DurationNS < 0 {
			return nil, fmt.Errorf("sprinkler: Phases bounds must be non-negative")
		}
	}
	return &phaseSource{phases: phases}, nil
}

type phaseSource struct {
	phases []Phase
	cur    int
	base   int64 // merged-clock offset of the current phase
	clock  int64 // last emitted arrival
	n      int64 // emissions in the current phase
	err    error
}

func (s *phaseSource) Next() (Request, bool) {
	for s.cur < len(s.phases) {
		p := s.phases[s.cur]
		if p.Requests > 0 && s.n >= p.Requests {
			s.advance()
			continue
		}
		r, ok := p.Source.Next()
		if !ok {
			if err := sourceErr(p.Source); err != nil && s.err == nil {
				s.err = err
				return Request{}, false
			}
			s.advance()
			continue
		}
		if p.DurationNS > 0 && r.ArrivalNS >= p.DurationNS {
			// The pulled request lands past the phase boundary: the phase is
			// over and the request is dropped (the regime switched first).
			s.advance()
			continue
		}
		s.n++
		r.ArrivalNS += s.base
		if r.ArrivalNS < s.clock {
			r.ArrivalNS = s.clock
		}
		s.clock = r.ArrivalNS
		return r, true
	}
	return Request{}, false
}

// advance moves to the next phase, anchoring it at the emitted clock.
func (s *phaseSource) advance() {
	s.cur++
	s.base = s.clock
	s.n = 0
}

func (s *phaseSource) Err() error { return s.err }

// Burst modulates an open-loop arrival timeline into on/off bursts: the
// inner stream's arrivals are compressed into on-windows of onNS
// nanoseconds separated by silent gaps of offNS — a square-wave arrival
// envelope with duty cycle on/(on+off). The mapping is pure time dilation
// (arrival' = arrival + floor(arrival/on)·off): request contents, order,
// and intra-burst pacing are untouched, and the stream stays monotone.
// Closed-loop sources (all arrivals at t=0) pass through unchanged.
func Burst(src Source, onNS, offNS int64) (Source, error) {
	if onNS <= 0 || offNS < 0 {
		return nil, fmt.Errorf("sprinkler: Burst needs onNS > 0 and offNS >= 0, got %d/%d", onNS, offNS)
	}
	return &burstSource{src: src, on: onNS, off: offNS}, nil
}

type burstSource struct {
	src     Source
	on, off int64
}

func (s *burstSource) Next() (Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return Request{}, false
	}
	r.ArrivalNS += r.ArrivalNS / s.on * s.off
	return r, true
}

func (s *burstSource) Err() error { return sourceErr(s.src) }

// Zipf imposes a power-law spatial skew: each passing request keeps its
// timing, direction and size, but its address is redrawn from a bounded
// Zipf-like distribution with exponent theta over [0, span) logical pages
// (theta 0 is uniform; 0.99 is the classic hot/cold skew; larger
// concentrates harder). Hot pages are the low ranks, which the FTL's
// striped allocation spreads across channels and chips — so the skew
// shapes contention, not placement. Sampling is O(1) inverse-CDF of the
// continuous bounded power law.
func Zipf(src Source, theta float64, span int64, seed uint64) (Source, error) {
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return nil, fmt.Errorf("sprinkler: Zipf theta %v must be a non-negative finite number", theta)
	}
	if span <= 0 {
		return nil, fmt.Errorf("sprinkler: Zipf span %d must be positive", span)
	}
	return &zipfSource{src: src, theta: theta, span: span, rng: sim.NewRand(seed ^ 0x7A6970665F736B65)}, nil
}

type zipfSource struct {
	src   Source
	theta float64
	span  int64
	rng   *sim.Rand
}

func (s *zipfSource) Next() (Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return Request{}, false
	}
	r.LPN = zipfRank(s.rng, s.theta, s.span)
	if int64(r.Pages) > s.span {
		r.Pages = int(s.span)
	}
	if r.LPN+int64(r.Pages) > s.span {
		r.LPN = s.span - int64(r.Pages)
	}
	return r, true
}

// zipfRank draws a rank in [0, n) from the bounded continuous power law
// with density ∝ x^(-theta) on [1, n+1], by exact inversion: O(1) per
// sample with no zeta-table precomputation, Zipf-like for all theta >= 0.
func zipfRank(rng *sim.Rand, theta float64, n int64) int64 {
	u := rng.Float64()
	var x float64
	switch {
	case theta == 0:
		x = u*float64(n) + 1
	case theta == 1:
		x = math.Exp(u * math.Log(float64(n)+1))
	default:
		t := 1 - theta
		x = math.Pow(u*(math.Pow(float64(n)+1, t)-1)+1, 1/t)
	}
	rank := int64(x) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}

func (s *zipfSource) Err() error { return sourceErr(s.src) }

// ReadRatio redraws each passing request's direction: read with
// probability frac, write otherwise. Timing, addresses and sizes pass
// through, so a single base workload can sweep the read/write mix as an
// axis.
func ReadRatio(src Source, frac float64, seed uint64) (Source, error) {
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return nil, fmt.Errorf("sprinkler: ReadRatio fraction %v must be in [0, 1]", frac)
	}
	return &readRatioSource{src: src, frac: frac, rng: sim.NewRand(seed ^ 0x72775F7261746975)}, nil
}

type readRatioSource struct {
	src  Source
	frac float64
	rng  *sim.Rand
}

func (s *readRatioSource) Next() (Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return Request{}, false
	}
	r.Write = s.rng.Float64() >= s.frac
	return r, true
}

func (s *readRatioSource) Err() error { return sourceErr(s.src) }

// Resize redraws each passing request's transfer size uniformly in
// [minPages, maxPages], clamping the start address so the request stays
// inside [0, span) logical pages. minPages == maxPages pins every request
// to one size — the transfer-size modulation axis of the sensitivity
// sweeps.
func Resize(src Source, minPages, maxPages int, span int64, seed uint64) (Source, error) {
	if minPages <= 0 || maxPages < minPages {
		return nil, fmt.Errorf("sprinkler: Resize needs 0 < minPages <= maxPages, got %d..%d", minPages, maxPages)
	}
	if span < int64(maxPages) {
		return nil, fmt.Errorf("sprinkler: Resize span %d < maxPages %d", span, maxPages)
	}
	return &resizeSource{src: src, min: minPages, max: maxPages, span: span, rng: sim.NewRand(seed ^ 0x7265736970616773)}, nil
}

type resizeSource struct {
	src      Source
	min, max int
	span     int64
	rng      *sim.Rand
}

func (s *resizeSource) Next() (Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return Request{}, false
	}
	pages := s.min
	if s.max > s.min {
		pages += s.rng.Intn(s.max - s.min + 1)
	}
	r.Pages = pages
	if r.LPN+int64(pages) > s.span {
		r.LPN = s.span - int64(pages)
	}
	if r.LPN < 0 {
		r.LPN = 0
	}
	return r, true
}

func (s *resizeSource) Err() error { return sourceErr(s.src) }
