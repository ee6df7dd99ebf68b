package sprinkler

import "fmt"

// This file lifts sources and combinators to SourceSpec constructors, so a
// Grid can sweep workload *structure* — burst duty cycle, mix ratio, skew
// exponent, read ratio, transfer size — as an axis, the same way it sweeps
// schedulers and topology. Each constructor composes the spec's label (the
// label is the axis point's name and feeds the per-cell seed) and threads
// the cell seed into every seeded layer it builds.

// Spec lifts a Table 1 workload description to a grid axis point labelled
// with the workload name. A zero Seed follows the cell seed (the usual
// grid discipline); a non-zero Seed pins the trace — the source ignores
// the cell seed, so every cell replays the one frozen stream.
func (s WorkloadSpec) Spec() SourceSpec {
	return SourceSpec{
		Label: s.Name,
		New: func(cfg Config, seed uint64) (Source, error) {
			spec := s
			if spec.Seed == 0 {
				spec.Seed = seed
			}
			return cfg.NewWorkloadSource(spec)
		},
	}
}

// Spec lifts a fixed-transfer-size workload description to a grid axis
// point. Seed semantics are as on WorkloadSpec.Spec: zero follows the
// cell seed, non-zero freezes the stream across cells.
func (s FixedSpec) Spec(label string) SourceSpec {
	return SourceSpec{
		Label: label,
		New: func(cfg Config, seed uint64) (Source, error) {
			spec := s
			if spec.Seed == 0 {
				spec.Seed = seed
			}
			return cfg.NewFixedSource(spec)
		},
	}
}

// wrap derives a new spec from s: the label gains a "+suffix" tag and the
// built source is transformed by fn (with the cell's config and seed in
// scope for span sizing and seed derivation).
func (s SourceSpec) wrap(suffix string, fn func(src Source, cfg Config, seed uint64) (Source, error)) SourceSpec {
	inner := s.New
	return SourceSpec{
		Label: s.Label + "+" + suffix,
		New: func(cfg Config, seed uint64) (Source, error) {
			src, err := inner(cfg, seed)
			if err != nil {
				return nil, err
			}
			return fn(src, cfg, seed)
		},
	}
}

// Relabel renames the spec's axis point (the default composed labels can
// get long).
func (s SourceSpec) Relabel(label string) SourceSpec {
	return SourceSpec{Label: label, New: s.New}
}

// WithLimit caps the spec's source at n requests.
func (s SourceSpec) WithLimit(n int64) SourceSpec {
	return s.wrap(fmt.Sprintf("limit=%d", n), func(src Source, _ Config, _ uint64) (Source, error) {
		return Limit(src, n), nil
	})
}

// WithPoisson rewrites the spec's arrivals as an open-loop Poisson process
// at the given mean rate (requests per simulated second).
func (s SourceSpec) WithPoisson(requestsPerSec float64) SourceSpec {
	return s.wrap(fmt.Sprintf("poisson=%g", requestsPerSec), func(src Source, _ Config, seed uint64) (Source, error) {
		return Poisson(src, requestsPerSec, seed), nil
	})
}

// WithBurst modulates the spec's arrival timeline into on/off bursts (see
// Burst). Sweep offNS to make burst duty cycle a grid axis.
func (s SourceSpec) WithBurst(onNS, offNS int64) SourceSpec {
	return s.wrap(fmt.Sprintf("burst=%d/%d", onNS, offNS), func(src Source, _ Config, _ uint64) (Source, error) {
		return Burst(src, onNS, offNS)
	})
}

// WithZipf redraws the spec's addresses from a Zipf-like power law with
// exponent theta over the cell configuration's logical space.
func (s SourceSpec) WithZipf(theta float64) SourceSpec {
	return s.wrap(fmt.Sprintf("zipf=%g", theta), func(src Source, cfg Config, seed uint64) (Source, error) {
		return Zipf(src, theta, logicalSpan(cfg.LogicalPages, cfg.TotalPages()), seed)
	})
}

// WithReadRatio redraws the spec's request directions: read with
// probability frac.
func (s SourceSpec) WithReadRatio(frac float64) SourceSpec {
	return s.wrap(fmt.Sprintf("read=%g", frac), func(src Source, _ Config, seed uint64) (Source, error) {
		return ReadRatio(src, frac, seed)
	})
}

// WithPages redraws the spec's transfer sizes uniformly in
// [minPages, maxPages], clamped to the cell configuration's logical space.
func (s SourceSpec) WithPages(minPages, maxPages int) SourceSpec {
	return s.wrap(fmt.Sprintf("pages=%d-%d", minPages, maxPages), func(src Source, cfg Config, seed uint64) (Source, error) {
		return Resize(src, minPages, maxPages, logicalSpan(cfg.LogicalPages, cfg.TotalPages()), seed)
	})
}

// WeightedSpec pairs a spec with its Mix weight.
type WeightedSpec struct {
	Spec   SourceSpec
	Weight float64
}

// MixSpec declares a weighted interleave of specs as one axis point. Child
// i is built with SubSeed(cellSeed, i), so the children draw decorrelated
// streams from one cell seed.
func MixSpec(label string, items ...WeightedSpec) SourceSpec {
	return SourceSpec{
		Label: label,
		New: func(cfg Config, seed uint64) (Source, error) {
			ws := make([]Weighted, len(items))
			for i, it := range items {
				if it.Spec.New == nil {
					return nil, fmt.Errorf("sprinkler: MixSpec %q: item %d has no source", label, i)
				}
				src, err := it.Spec.New(cfg, SubSeed(seed, i))
				if err != nil {
					return nil, err
				}
				ws[i] = Weighted{Source: src, Weight: it.Weight}
			}
			return Mix(seed, ws...)
		},
	}
}

// PhaseSpec is one regime of a PhasesSpec (bounds as in Phase).
type PhaseSpec struct {
	Spec       SourceSpec
	Requests   int64
	DurationNS int64
}

// PhasesSpec declares a sequence of regimes as one axis point, with the
// same SubSeed-per-child derivation as MixSpec.
func PhasesSpec(label string, phases ...PhaseSpec) SourceSpec {
	return SourceSpec{
		Label: label,
		New: func(cfg Config, seed uint64) (Source, error) {
			ps := make([]Phase, len(phases))
			for i, p := range phases {
				if p.Spec.New == nil {
					return nil, fmt.Errorf("sprinkler: PhasesSpec %q: phase %d has no source", label, i)
				}
				src, err := p.Spec.New(cfg, SubSeed(seed, i))
				if err != nil {
					return nil, err
				}
				ps[i] = Phase{Source: src, Requests: p.Requests, DurationNS: p.DurationNS}
			}
			return Phases(ps...)
		},
	}
}
