// Package collect assembles shipped span batches into per-run causal
// timelines at the coordinator. Batches arrive lossy, out of order, and
// sometimes after their run has completed (agents flush on the metric
// tick), so the assembler is a bounded accumulator: traces are keyed by
// their 128-bit ID, evicted oldest-first past a cap, and capped per
// trace in span count, with every discard counted rather than silent.
//
// Two exports serve the two audiences: WriteChromeTrace emits the
// Chrome trace-event JSON array chrome://tracing and Perfetto render,
// and Summary prints the text critical path — slowest participant per
// phase per superstep and barrier-wait attribution.
package collect

import (
	"fmt"
	"sort"
	"sync"

	"elga/internal/trace"
)

// Defaults bounding assembler state. A PageRank run at quick scale emits
// a few hundred spans; 64 live traces at 64k spans each tolerates chaos
// churn without letting a misbehaving participant OOM the coordinator.
const (
	DefaultMaxTraces        = 64
	DefaultMaxSpansPerTrace = 1 << 16
)

type traceKey struct{ hi, lo uint64 }

// traceState is one trace's accumulated spans, grouped per participant.
type traceState struct {
	key      traceKey
	runID    uint32
	spans    map[string][]trace.SpanRecord // proc -> spans
	count    int
	complete bool
}

// Collector receives span batches and assembles timelines. Safe for
// concurrent use (the directory event loop and test scrapers both call
// in).
type Collector struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    map[traceKey]*traceState
	order     []traceKey // arrival order, oldest first, for eviction

	evictedTraces uint64 // whole traces evicted past maxTraces
	droppedSpans  uint64 // spans discarded past a trace's span cap
}

// New returns a Collector with the default bounds.
func New() *Collector { return NewWithLimits(DefaultMaxTraces, DefaultMaxSpansPerTrace) }

// NewWithLimits returns a Collector bounded to maxTraces live traces of
// maxSpans spans each (values < 1 fall back to the defaults).
func NewWithLimits(maxTraces, maxSpans int) *Collector {
	if maxTraces < 1 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpans < 1 {
		maxSpans = DefaultMaxSpansPerTrace
	}
	return &Collector{
		maxTraces: maxTraces, maxSpans: maxSpans,
		traces: make(map[traceKey]*traceState),
	}
}

// Add ingests one participant's span batch. Spans with a zero trace ID
// are counted dropped (they cannot be stitched to anything). A parentless
// "run" span is the coordinator's root closing: it marks its trace
// complete (MarkComplete), and later batches for it count as late.
func (c *Collector) Add(proc string, spans []trace.SpanRecord) {
	if len(spans) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range spans {
		if s.TraceHi == 0 && s.TraceLo == 0 {
			c.droppedSpans++
			continue
		}
		k := traceKey{s.TraceHi, s.TraceLo}
		st := c.traces[k]
		if st == nil {
			st = &traceState{key: k, runID: s.RunID, spans: make(map[string][]trace.SpanRecord)}
			c.traces[k] = st
			c.order = append(c.order, k)
			c.evictLocked()
		}
		if s.Name == "run" && s.Parent == 0 {
			st.complete = true
		}
		if st.count >= c.maxSpans {
			c.droppedSpans++
			continue
		}
		st.spans[proc] = append(st.spans[proc], s)
		st.count++
	}
}

// evictLocked drops the oldest traces until the cap holds again.
func (c *Collector) evictLocked() {
	for len(c.traces) > c.maxTraces && len(c.order) > 0 {
		k := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.traces[k]; ok {
			delete(c.traces, k)
			c.evictedTraces++
		}
	}
}

// MarkComplete records that the run owning this trace finished. Late
// batches are still accepted (participants flush on their own cadence)
// but remain bounded by the same caps; completion is advisory, feeding
// the summary and letting tests assert no state leaks past it.
func (c *Collector) MarkComplete(traceHi, traceLo uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.traces[traceKey{traceHi, traceLo}]; st != nil {
		st.complete = true
	}
}

// TraceCount returns the number of live traces (bounded by maxTraces).
func (c *Collector) TraceCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// SpanCount returns the total spans held across all live traces.
func (c *Collector) SpanCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.traces {
		n += st.count
	}
	return n
}

// Dropped returns the discard counters: whole traces evicted past the
// trace cap and individual spans dropped past a span cap.
func (c *Collector) Dropped() (evictedTraces, droppedSpans uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictedTraces, c.droppedSpans
}

// Timeline is one assembled trace, spans sorted by start time, ready for
// export or inspection.
type Timeline struct {
	TraceHi, TraceLo uint64
	RunID            uint32
	Complete         bool
	// Spans is proc -> that participant's spans sorted by start.
	Spans map[string][]trace.SpanRecord
}

// Timelines returns the assembled traces sorted by run ID then trace ID,
// each participant's spans sorted by start time. The result is a copy.
func (c *Collector) Timelines() []Timeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Timeline, 0, len(c.traces))
	for _, st := range c.traces {
		tl := Timeline{
			TraceHi: st.key.hi, TraceLo: st.key.lo, RunID: st.runID,
			Complete: st.complete, Spans: make(map[string][]trace.SpanRecord, len(st.spans)),
		}
		for proc, spans := range st.spans {
			cp := append([]trace.SpanRecord(nil), spans...)
			sort.Slice(cp, func(i, j int) bool { return cp[i].Start < cp[j].Start })
			tl.Spans[proc] = cp
		}
		out = append(out, tl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RunID != out[j].RunID {
			return out[i].RunID < out[j].RunID
		}
		if out[i].TraceHi != out[j].TraceHi {
			return out[i].TraceHi < out[j].TraceHi
		}
		return out[i].TraceLo < out[j].TraceLo
	})
	return out
}

// TraceID formats the timeline's 128-bit trace ID.
func (t Timeline) TraceID() string { return fmt.Sprintf("%016x%016x", t.TraceHi, t.TraceLo) }
