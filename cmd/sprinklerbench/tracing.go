package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer of the simulator.
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int           // index of the enclosing span; -1 for none
	rep        int           // repetition; -1 for set-up and warm-up
	lane       int           // client the call came from
	mallocs    int64         // heap objects allocated during the span; -1 when not counted
}

// tracer keeps spans in memory until the run ends. The benchmark records
// them around its own calls into the simulator's public API, so the
// simulator carries no tracing code. A nil *tracer records nothing, which
// is how untraced passes run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id. With mallocs set the
// span also counts heap allocations — process-wide, so only spans that own
// the process's activity should ask for it.
func (t *tracer) begin(name string, parent, rep int, mallocs bool) int {
	if t == nil {
		return -1
	}
	m := int64(-1)
	if mallocs {
		m = heapObjects()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 0
	if parent >= 0 {
		lane = t.spans[parent].lane
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, rep: rep, lane: lane, mallocs: m})
	return len(t.spans) - 1
}

// beginLane opens a root span for the client on lane.
func (t *tracer) beginLane(name string, lane, rep int) int {
	id := t.begin(name, -1, rep, false)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].lane = lane
		t.mu.Unlock()
	}
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	if s.mallocs >= 0 {
		s.mallocs = heapObjects() - s.mallocs
	}
}

// span runs fn inside a span that counts allocations.
func (t *tracer) span(name string, parent, rep int, fn func() error) error {
	id := t.begin(name, parent, rep, true)
	defer t.end(id)
	return fn()
}

// durationsMs returns the durations of every closed span called name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, viewable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"rep": s.rep, "parent": s.parent}
		if s.mallocs >= 0 {
			args["mallocs"] = s.mallocs
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane, Args: args,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// heapObjects is the number of heap objects the process has allocated.
func heapObjects() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
