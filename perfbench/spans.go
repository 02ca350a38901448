package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"time"
)

// span is one call from the benchmark into a layer's public function, in
// host time relative to the tracer's start.
type span struct {
	name, detail string
	parent       int // index into tracer.spans, -1 for a root
	start, end   time.Duration
}

// tracer records layer spans and per-layer counts for the traced run.
// Every method is a no-op on a nil tracer, which is how the same
// composition runs untraced. Spans are kept in memory and read when the
// run ends; one goroutine drives a tracer.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	counts map[string]float64
	heap   []metrics.Sample
	// heapPeak is the largest live-heap reading taken at a span end.
	heapPeak uint64
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		counts: map[string]float64{},
		heap:   []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// span opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) span(name, detail string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, detail: detail, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
		metrics.Read(t.heap)
		if v := t.heap[0].Value.Uint64(); v > t.heapPeak {
			t.heapPeak = v
		}
	}
}

// add accumulates a per-layer count.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// self sums, per span name, each span's duration minus the time its
// child spans cover, over the spans that start at or after from.
func (t *tracer) self(from time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.start >= from {
			out[s.name] += s.end - s.start
		}
	}
	for _, s := range t.spans {
		if s.start >= from && s.parent >= 0 {
			out[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return out
}

// writeChrome exports the spans as a Chrome trace-event file in host
// microseconds, one thread, so the layer split opens in Perfetto or
// chrome://tracing beside the simulator's virtual-time trace.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]string{"name": process}}}
	for _, s := range t.spans {
		e := event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1}
		if s.detail != "" {
			e.Args = map[string]string{"detail": s.detail}
		}
		events = append(events, e)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
