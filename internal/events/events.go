// Package events is the cluster's structured control-plane log: leveled,
// key-value, trace-correlated records of every decision the cluster
// makes — joins, leaves, lease evictions, migration rounds, checkpoint
// commits and busy-drops, retries. Each participant
// keeps a bounded ring journal and ships pending records lossily to the
// coordinator (a report section, on the report cadence), which merges them
// into one durable timeline that rides the coordinator checkpoint.
//
// Like trace.Tracer, a nil *Journal is the zero-cost off switch: every
// method is safe on a nil receiver, so a disabled journal costs one
// branch and zero allocations — the discipline the superstep alloc
// ceiling depends on.
package events

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"elga/internal/trace"
)

// Level grades an event's severity.
type Level uint8

const (
	Info Level = iota
	Warn
	Error
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "level-" + strconv.Itoa(int(l))
	}
}

// Event kinds: the closed taxonomy of control-plane decisions. Keeping
// them as named constants (rather than free-form strings) is what lets
// the chaos tests assert causal order and the health model count by
// kind without parsing.
const (
	KindJoin           = "join"             // agent admitted to the view
	KindLeave          = "leave"            // agent left voluntarily
	KindEvict          = "evict"            // lease expired, agent evicted
	KindMigrationStart = "migration-start"  // epoch bump opened a migration round
	KindMigrationDone  = "migration-done"   // all masters confirmed the epoch
	KindCheckpoint     = "checkpoint"       // snapshot submitted to the background writer
	KindCheckpointDrop = "checkpoint-drop"  // snapshot dropped because the writer was busy
	KindRestore        = "restore"          // participant restored state from a checkpoint
	KindRunStart       = "run-start"        // algorithm run admitted
	KindRunDone        = "run-done"         // algorithm run finished
	KindSeal           = "seal"             // graph seal round
	KindBatch          = "batch"            // dynamic batch boundary
	KindRetry          = "retry"            // client op attempt retried
	KindOpError        = "op-error"         // client op failed after retries
	KindHealth         = "health"           // health model changed an agent's status
	KindProfile        = "profile-captured" // profile artifact committed to the store
)

// MaxFields is the per-record key-value capacity. Fields live inline in
// the Record (no per-event slice), which is what keeps Emit free of heap
// allocation: the variadic argument never escapes.
const MaxFields = 4

// Field is one key-value detail on an event: either a uint64 or a
// string, tagged. Construct with U and S.
type Field struct {
	Key   string
	Str   string
	U64   uint64
	IsStr bool
}

// U returns a numeric field.
func U(key string, v uint64) Field { return Field{Key: key, U64: v} }

// S returns a string field.
func S(key, v string) Field { return Field{Key: key, Str: v, IsStr: true} }

// Value renders the field's value as a string (formats numerics).
func (f Field) Value() string {
	if f.IsStr {
		return f.Str
	}
	return strconv.FormatUint(f.U64, 10)
}

// Record is one journalled event. Time is unix nanoseconds so records
// from different participants land on one absolute axis; TraceHi/TraceLo
// link the event into the same causal timeline as the PR 5 spans; Seq is
// assigned by the coordinator timeline on merge (zero until then).
type Record struct {
	Seq     uint64
	Time    int64
	Level   Level
	Kind    string
	Proc    string
	TraceHi uint64
	TraceLo uint64
	RunID   uint32
	Step    uint32
	NFields uint8
	Fields  [MaxFields]Field
}

// Field returns the value of the named field and whether it is present.
func (r *Record) Field(key string) (Field, bool) {
	for i := 0; i < int(r.NFields); i++ {
		if r.Fields[i].Key == key {
			return r.Fields[i], true
		}
	}
	return Field{}, false
}

// maxPending bounds the event backlog a Journal holds between shipping
// opportunities (the lossy report tick). When a participant outruns the
// cadence — or the coordinator is unreachable — new events are dropped
// and counted rather than growing the heap. Control-plane events are
// rare, so in practice this only trips under injected faults.
const maxPending = 1024

// Journal records events for one participant: an always-on bounded ring
// (the local history) plus a pending batch awaiting shipment. All
// methods are safe on a nil receiver; a Journal is safe for concurrent
// use.
type Journal struct {
	mu   sync.Mutex
	proc string

	ring    []Record
	next    int
	total   uint64
	pending []Record
	dropped atomic.Uint64
}

// NewJournal returns a Journal for the named participant, or nil when
// cfg disables events (the nil Journal is the zero-cost off switch).
func NewJournal(proc string, cfg Config) *Journal {
	return newJournal(proc, cfg, RingCapacity)
}

// newJournal is NewJournal with a ring of the given capacity.
func newJournal(proc string, cfg Config, ring int) *Journal {
	if !cfg.Enabled {
		return nil
	}
	return &Journal{proc: proc, ring: make([]Record, ring)}
}

// Enabled reports whether j records anything.
func (j *Journal) Enabled() bool { return j != nil }

// Proc returns the participant name events are attributed to.
func (j *Journal) Proc() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.proc
}

// SetProc renames the participant. Call before events flow (agents learn
// their ID only once the join reply lands).
func (j *Journal) SetProc(proc string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.proc = proc
	j.mu.Unlock()
}

// Dropped returns how many events were discarded because the pending
// batch was full — exported as a backpressure counter.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// Emit records one event. ctx carries the trace correlation (zero when
// the decision happened outside any traced run). At most MaxFields
// fields are kept; extras are dropped silently. On a nil Journal this is
// a single branch and allocates nothing — the variadic slice never
// escapes because fields are copied into the record's inline array.
func (j *Journal) Emit(level Level, kind string, ctx trace.SpanContext, fields ...Field) {
	if j == nil {
		return
	}
	rec := Record{
		Time:    time.Now().UnixNano(),
		Level:   level,
		Kind:    kind,
		TraceHi: ctx.TraceHi,
		TraceLo: ctx.TraceLo,
		RunID:   ctx.RunID,
		Step:    ctx.Step,
	}
	for i, f := range fields {
		if i >= MaxFields {
			break
		}
		rec.Fields[i] = f
		rec.NFields++
	}
	j.record(rec)
}

func (j *Journal) record(rec Record) {
	j.mu.Lock()
	rec.Proc = j.proc
	j.ring[j.next] = rec
	j.next = (j.next + 1) % len(j.ring)
	j.total++
	if len(j.pending) < maxPending {
		j.pending = append(j.pending, rec)
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	j.dropped.Add(1)
}

// TakeBatch drains and returns the pending events (nil when there are
// none). Callers ship the result and must not retain it past that.
func (j *Journal) TakeBatch() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	b := j.pending
	j.pending = nil
	j.mu.Unlock()
	if len(b) == 0 {
		return nil
	}
	return b
}

// Snapshot returns the ring's contents, oldest first.
func (j *Journal) Snapshot() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.ring)
	if j.total < uint64(n) {
		n = int(j.total)
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, j.ring[(j.next-n+i+len(j.ring))%len(j.ring)])
	}
	return out
}

// Timeline is the coordinator's merged cluster history: a bounded ring
// of records from every participant, ordered by arrival, each stamped
// with a monotone sequence number that survives restart (the ring and
// the counter ride the coordinator checkpoint). Timeline is safe for
// concurrent use so metric gauges can scrape it off the event loop.
type Timeline struct {
	mu    sync.Mutex
	ring  []Record
	next  int
	total uint64
	seq   uint64
}

// NewTimeline returns a Timeline holding the most recent
// TimelineCapacity records.
func NewTimeline() *Timeline {
	return newTimeline(TimelineCapacity)
}

// newTimeline is NewTimeline holding the most recent capacity records.
func newTimeline(capacity int) *Timeline {
	return &Timeline{ring: make([]Record, capacity)}
}

// Append merges records into the timeline in order, assigning each a
// sequence number. The ring bounds memory: old history falls off, which
// is the documented lossiness (the timeline is an operator aid, not an
// audit ledger).
func (t *Timeline) Append(recs ...Record) {
	if t == nil || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	for _, rec := range recs {
		t.seq++
		rec.Seq = t.seq
		t.ring[t.next] = rec
		t.next = (t.next + 1) % len(t.ring)
		t.total++
	}
	t.mu.Unlock()
}

// Seq returns the last assigned sequence number (the count of events
// ever merged, including those that have fallen off the ring).
func (t *Timeline) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Recent returns the newest n records, oldest first (all of them when
// n <= 0 or exceeds the retained history).
func (t *Timeline) Recent(n int) []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	held := len(t.ring)
	if t.total < uint64(held) {
		held = int(t.total)
	}
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(t.next-n+i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Restore replaces the timeline's contents from a checkpoint: the
// retained records (oldest first) and the sequence counter to resume
// from.
func (t *Timeline) Restore(recs []Record, seq uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.ring {
		t.ring[i] = Record{}
	}
	t.next = 0
	t.total = 0
	start := 0
	if len(recs) > len(t.ring) {
		start = len(recs) - len(t.ring)
	}
	for _, rec := range recs[start:] {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % len(t.ring)
		t.total++
	}
	t.seq = seq
	t.mu.Unlock()
}
