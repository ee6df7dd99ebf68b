package sprinkler

import (
	"context"
	"fmt"
)

// Request-list helpers for tests. The library itself takes workloads only
// as a Source; these materialize small fixed lists for assertions.

// RunRequests replays a materialized request list through Run.
func (d *Device) RunRequests(requests []Request) (*Result, error) {
	return d.Run(context.Background(), SliceSource(requests))
}

// GenerateWorkload materializes n requests of a named Table 1 workload
// sized for this configuration.
func (c Config) GenerateWorkload(name string, n int, seed uint64) ([]Request, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sprinkler: GenerateWorkload needs a positive request count, got %d", n)
	}
	src, err := c.NewWorkloadSource(WorkloadSpec{Name: name, Requests: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, n)
	for {
		r, ok := src.Next()
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// SequentialReads builds n back-to-back reads of the given size.
func SequentialReads(n, pages int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{LPN: int64(i * pages), Pages: pages}
	}
	return out
}

// SequentialWrites builds n back-to-back writes of the given size.
func SequentialWrites(n, pages int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Write: true, LPN: int64(i * pages), Pages: pages}
	}
	return out
}
