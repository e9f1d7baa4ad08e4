// Package trace is the distributed tracer. View epochs, barrier votes, seal
// rounds, and migrations wedge in ways a goroutine dump cannot explain — the
// interesting state is which vote never arrived, not where anyone is blocked
// — so each participant records its runs, supersteps, phases and migration
// rounds as spans. A span's context rides the control-plane frames, so one
// run is one trace across processes; sampled spans ship to the coordinator's
// collector, and every span lands in the participant's always-on flight ring.
//
// A nil Tracer is the off switch: every method on it costs one branch.
package trace

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span as shipped between processes and fed
// to the collector: the identifiers that link it into a causal timeline
// plus its name and wall-clock interval. Start is unix nanoseconds so
// records from different hosts land on one absolute axis.
type SpanRecord struct {
	TraceHi uint64
	TraceLo uint64
	SpanID  uint64
	Parent  uint64
	RunID   uint32
	Step    uint32
	Flags   uint8
	Name    string
	Start   int64
	Dur     time.Duration
}

// Context returns the record's identifiers as a SpanContext (the shape a
// child span would have seen).
func (r SpanRecord) Context() SpanContext {
	return SpanContext{TraceHi: r.TraceHi, TraceLo: r.TraceLo, SpanID: r.SpanID,
		RunID: r.RunID, Step: r.Step, Flags: r.Flags}
}

// maxPending bounds the sampled-span backlog a Tracer holds between
// shipping opportunities. The shipping cadence is the lossy report tick;
// when a participant outruns it (or the coordinator is unreachable) new
// spans are dropped and counted rather than growing the heap.
const maxPending = 4096

// Tracer mints and records spans for one participant. All methods are
// safe on a nil receiver and return inert values, so disabled tracing
// costs one branch — the discipline the superstep alloc ceiling depends
// on. A Tracer is safe for concurrent use.
type Tracer struct {
	cfg  Config
	proc string

	mu      sync.Mutex
	flight  []SpanRecord // always-on ring of the most recent spans
	fNext   int
	fTotal  uint64
	pending []SpanRecord // sampled spans awaiting shipment
	dropped atomic.Uint64
	dumped  atomic.Bool
}

// NewTracer returns a Tracer for the named participant, or nil when cfg
// disables tracing (the nil Tracer is the zero-cost off switch).
func NewTracer(proc string, cfg Config) *Tracer {
	return newTracer(proc, cfg, FlightRecorder)
}

// newTracer is NewTracer with a flight ring of the given capacity.
func newTracer(proc string, cfg Config, flight int) *Tracer {
	if !cfg.Enabled {
		return nil
	}
	return &Tracer{cfg: cfg, proc: proc, flight: make([]SpanRecord, flight)}
}

// Proc returns the participant name spans are attributed to.
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.proc
}

// SetProc renames the participant. Call before spans flow (agents learn
// their ID only once the join reply lands).
func (t *Tracer) SetProc(proc string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = proc
	t.mu.Unlock()
}

// Enabled reports whether t records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Dropped returns how many sampled spans were discarded because the
// pending batch was full — exported as a backpressure counter.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// sample decides the sampling bit for a new root trace.
func (t *Tracer) sample() bool {
	f := t.cfg.Sample
	if f <= 0 || f >= 1 {
		return true
	}
	// NewID is uniform over 64 bits; compare against the fraction.
	return float64(NewID()>>11)/float64(1<<53) < f
}

// ActiveSpan is an open span. The zero value (returned by a nil or
// disabled Tracer, or for an invalid parent) is inert: Context returns
// the zero SpanContext and End is a no-op. ActiveSpan is a value type —
// starting and ending one allocates nothing.
type ActiveSpan struct {
	t      *Tracer
	ctx    SpanContext
	parent uint64
	name   string
	start  time.Time
}

// Context returns the span's context for injection into outbound frames.
func (s ActiveSpan) Context() SpanContext { return s.ctx }

// Recording reports whether End will record anything.
func (s ActiveSpan) Recording() bool { return s.t != nil }

// StartRoot opens a new trace: fresh 128-bit trace ID, no parent, the
// sampling decision taken here and inherited by every descendant.
func (t *Tracer) StartRoot(name string, runID uint32) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	ctx := SpanContext{TraceHi: NewID(), TraceLo: NewID(), SpanID: NewID(), RunID: runID}
	if t.sample() {
		ctx.Flags |= FlagSampled
	}
	return ActiveSpan{t: t, ctx: ctx, name: name, start: time.Now()}
}

// StartRemote opens a span linked under a context extracted from the
// wire: same trace, the sender's span as parent. An invalid parent
// yields an inert span, so callers link unconditionally.
func (t *Tracer) StartRemote(name string, parent SpanContext) ActiveSpan {
	if t == nil || !parent.Valid() {
		return ActiveSpan{}
	}
	ctx := parent
	ctx.SpanID = NewID()
	return ActiveSpan{t: t, ctx: ctx, parent: parent.SpanID, name: name, start: time.Now()}
}

// StartRemoteAt is StartRemote with an explicit start time, for linking
// a span retroactively: the client learns the run's trace context only
// from the reply frame, after the interval it wants to attribute.
func (t *Tracer) StartRemoteAt(name string, parent SpanContext, start time.Time) ActiveSpan {
	s := t.StartRemote(name, parent)
	if s.t != nil {
		s.start = start
	}
	return s
}

// StartChild opens a span under another local span (same trace, in
// process). Inert when the parent is.
func (t *Tracer) StartChild(name string, parent ActiveSpan) ActiveSpan {
	return t.StartRemote(name, parent.ctx)
}

// WithStep returns a copy of s whose context carries the given superstep
// epoch, for injecting step-scoped child contexts.
func (s ActiveSpan) WithStep(step uint32) ActiveSpan {
	s.ctx.Step = step
	return s
}

// End closes the span: it always lands in the flight ring, and when the
// trace is sampled it joins the pending batch for shipment (or bumps the
// drop counter if the batch is full).
func (s ActiveSpan) End() {
	if s.t == nil {
		return
	}
	s.t.record(SpanRecord{
		TraceHi: s.ctx.TraceHi, TraceLo: s.ctx.TraceLo,
		SpanID: s.ctx.SpanID, Parent: s.parent,
		RunID: s.ctx.RunID, Step: s.ctx.Step, Flags: s.ctx.Flags,
		Name: s.name, Start: s.start.UnixNano(), Dur: time.Since(s.start),
	})
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	t.flight[t.fNext] = rec
	t.fNext = (t.fNext + 1) % len(t.flight)
	t.fTotal++
	if rec.Flags&FlagSampled != 0 {
		if len(t.pending) < maxPending {
			t.pending = append(t.pending, rec)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.mu.Unlock()
}

// TakeBatch drains and returns the pending sampled spans (nil when there
// are none). Callers ship the result and must not retain it past that.
func (t *Tracer) TakeBatch() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	b := t.pending
	t.pending = nil
	t.mu.Unlock()
	if len(b) == 0 {
		return nil
	}
	return b
}

// FlightSnapshot returns the flight ring's contents, oldest first.
func (t *Tracer) FlightSnapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.flight)
	if t.fTotal < uint64(n) {
		n = int(t.fTotal)
	}
	out := make([]SpanRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, t.flight[(t.fNext-n+i+len(t.flight))%len(t.flight)])
	}
	return out
}

// DumpFlight writes the flight ring to w, a header line and then one line
// per span, once per Tracer lifetime: eviction, Kill, and shutdown paths
// may all fire, and only the first dump writes.
func (t *Tracer) DumpFlight(w io.Writer, reason string) {
	if t == nil || !t.dumped.CompareAndSwap(false, true) {
		return
	}
	snap := t.FlightSnapshot()
	proc := t.Proc()
	fmt.Fprintf(w, "%s flight-dump (%s): %d spans\n", proc, reason, len(snap))
	for _, r := range snap {
		fmt.Fprintf(w, "  %s run=%d step=%d %s dur=%s trace=%016x%016x span=%x parent=%x\n",
			proc, r.RunID, r.Step, r.Name, r.Dur, r.TraceHi, r.TraceLo, r.SpanID, r.Parent)
	}
}
