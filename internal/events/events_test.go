package events

import (
	"fmt"
	"testing"

	"elga/internal/trace"
)

// TestNilJournalSafe exercises every method on the nil off-switch: each
// must be a no-op, never a panic — the contract callers rely on instead
// of guarding every emission site.
func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	if j.Enabled() {
		t.Fatal("nil journal reports enabled")
	}
	j.Emit(Info, KindJoin, trace.SpanContext{}, U("agent", 1))
	j.SetProc("ghost")
	if got := j.Proc(); got != "" {
		t.Fatalf("nil Proc() = %q", got)
	}
	if b := j.TakeBatch(); b != nil {
		t.Fatalf("nil TakeBatch() = %v", b)
	}
	if s := j.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot() = %v", s)
	}
	if d := j.Dropped(); d != 0 {
		t.Fatalf("nil Dropped() = %d", d)
	}
}

// TestNewJournalDisabled checks that a disabled config yields the nil
// journal rather than an inert allocated one.
func TestNewJournalDisabled(t *testing.T) {
	if j := NewJournal("agent", Config{}); j != nil {
		t.Fatal("disabled config produced a non-nil journal")
	}
	if j := NewJournal("agent", Config{Enabled: true}); j == nil {
		t.Fatal("enabled config produced a nil journal")
	}
}

// TestEmitFieldsAndProc checks field capture (including the MaxFields
// overflow truncation), trace correlation, and late proc renaming.
func TestEmitFieldsAndProc(t *testing.T) {
	j := NewJournal("agent", Config{Enabled: true})
	j.SetProc("agent-7")
	ctx := trace.SpanContext{TraceHi: 0xa, TraceLo: 0xb, RunID: 3, Step: 9}
	j.Emit(Warn, KindEvict, ctx,
		U("agent", 7), S("addr", "inproc-3"),
		U("extra1", 1), S("extra2", "x"), U("overflow", 5))

	batch := j.TakeBatch()
	if len(batch) != 1 {
		t.Fatalf("batch length %d, want 1", len(batch))
	}
	r := batch[0]
	if r.Proc != "agent-7" || r.Kind != KindEvict || r.Level != Warn {
		t.Fatalf("record header %+v", r)
	}
	if r.TraceHi != 0xa || r.TraceLo != 0xb || r.RunID != 3 || r.Step != 9 {
		t.Fatalf("trace correlation lost: %+v", r)
	}
	if r.NFields != MaxFields {
		t.Fatalf("NFields = %d, want %d (overflow truncated)", r.NFields, MaxFields)
	}
	if f, ok := r.Field("agent"); !ok || f.U64 != 7 || f.Value() != "7" {
		t.Fatalf("field agent = %+v ok=%v", f, ok)
	}
	if f, ok := r.Field("addr"); !ok || f.Str != "inproc-3" || f.Value() != "inproc-3" {
		t.Fatalf("field addr = %+v ok=%v", f, ok)
	}
	if _, ok := r.Field("overflow"); ok {
		t.Fatal("field beyond MaxFields survived")
	}
	if _, ok := r.Field("absent"); ok {
		t.Fatal("lookup of absent field reported present")
	}
}

// TestTakeBatchDrains checks that TakeBatch hands off pending records
// exactly once and returns nil when there is nothing to ship.
func TestTakeBatchDrains(t *testing.T) {
	j := NewJournal("client", Config{Enabled: true})
	if b := j.TakeBatch(); b != nil {
		t.Fatalf("empty journal TakeBatch = %v", b)
	}
	for i := 0; i < 3; i++ {
		j.Emit(Info, KindRetry, trace.SpanContext{}, U("attempt", uint64(i)))
	}
	if b := j.TakeBatch(); len(b) != 3 {
		t.Fatalf("first drain got %d records, want 3", len(b))
	}
	if b := j.TakeBatch(); b != nil {
		t.Fatalf("second drain got %v, want nil", b)
	}
}

// TestRingWrapAndSnapshot overfills a small ring and checks Snapshot
// keeps only the newest capacity records, oldest first.
func TestRingWrapAndSnapshot(t *testing.T) {
	j := newJournal("agent", Config{Enabled: true}, 4)
	for i := 0; i < 10; i++ {
		j.Emit(Info, KindBatch, trace.SpanContext{}, U("i", uint64(i)))
	}
	snap := j.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d, want 4", len(snap))
	}
	for k, r := range snap {
		want := uint64(6 + k) // events 6..9 survive, oldest first
		if f, _ := r.Field("i"); f.U64 != want {
			t.Fatalf("snapshot[%d] i = %d, want %d", k, f.U64, want)
		}
	}
}

// TestPendingOverflowDrops fills the pending batch past maxPending and
// checks the overflow is counted, not buffered — the ring still records
// the dropped events as local history.
func TestPendingOverflowDrops(t *testing.T) {
	j := newJournal("agent", Config{Enabled: true}, 8)
	for i := 0; i < maxPending+5; i++ {
		j.Emit(Info, KindBatch, trace.SpanContext{})
	}
	if d := j.Dropped(); d != 5 {
		t.Fatalf("dropped = %d, want 5", d)
	}
	if b := j.TakeBatch(); len(b) != maxPending {
		t.Fatalf("pending batch %d, want %d", len(b), maxPending)
	}
	// Once drained, new events buffer again.
	j.Emit(Info, KindBatch, trace.SpanContext{})
	if b := j.TakeBatch(); len(b) != 1 {
		t.Fatalf("post-drain batch %d, want 1", len(b))
	}
	if d := j.Dropped(); d != 5 {
		t.Fatalf("dropped moved to %d after drain, want 5", d)
	}
}

// TestEmitZeroAlloc is the hot-path contract: an armed journal emission
// stays heap-free (fields land in the record's inline array) and the nil
// off-switch is exactly one branch. Skipped under -race, whose
// instrumentation allocates.
func TestEmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under -race")
	}
	var off *Journal
	if n := testing.AllocsPerRun(100, func() {
		off.Emit(Info, KindBatch, trace.SpanContext{}, U("agent", 1), U("batch", 2))
	}); n != 0 {
		t.Fatalf("nil journal Emit allocates %v/op, want 0", n)
	}
	on := newJournal("agent", Config{Enabled: true}, 16)
	if n := testing.AllocsPerRun(100, func() {
		on.TakeBatch() // keep pending empty so append never grows
		on.Emit(Info, KindBatch, trace.SpanContext{}, U("agent", 1), U("batch", 2))
	}); n > 1 {
		// One alloc/op allowance: the drained pending slice regrows from
		// nil on the first append after each TakeBatch.
		t.Fatalf("armed journal Emit allocates %v/op, want <= 1", n)
	}
}

// TestTimelineAppendRecent checks sequence assignment, ring eviction,
// and the newest-n/oldest-first Recent contract.
func TestTimelineAppendRecent(t *testing.T) {
	tl := newTimeline(4)
	for i := 0; i < 6; i++ {
		tl.Append(Record{Kind: KindJoin, Proc: fmt.Sprintf("agent-%d", i)})
	}
	if tl.Seq() != 6 {
		t.Fatalf("seq = %d, want 6", tl.Seq())
	}
	all := tl.Recent(0)
	if len(all) != 4 {
		t.Fatalf("Recent(0) length %d, want 4 (ring capacity)", len(all))
	}
	for k, r := range all {
		if want := uint64(3 + k); r.Seq != want {
			t.Fatalf("Recent(0)[%d].Seq = %d, want %d", k, r.Seq, want)
		}
	}
	last2 := tl.Recent(2)
	if len(last2) != 2 || last2[0].Seq != 5 || last2[1].Seq != 6 {
		t.Fatalf("Recent(2) = %+v", last2)
	}
	if got := tl.Recent(100); len(got) != 4 {
		t.Fatalf("Recent(100) length %d, want 4", len(got))
	}
}

// TestTimelineRestore round-trips a timeline through Recent/Seq and
// Restore: sequence numbering must resume where the checkpoint left off.
func TestTimelineRestore(t *testing.T) {
	tl := newTimeline(8)
	tl.Append(Record{Kind: KindJoin}, Record{Kind: KindSeal}, Record{Kind: KindRunStart})
	recs, seq := tl.Recent(0), tl.Seq()

	fresh := newTimeline(8)
	fresh.Restore(recs, seq)
	if fresh.Seq() != 3 {
		t.Fatalf("restored seq = %d, want 3", fresh.Seq())
	}
	got := fresh.Recent(0)
	if len(got) != 3 || got[0].Kind != KindJoin || got[2].Kind != KindRunStart {
		t.Fatalf("restored records = %+v", got)
	}
	// New appends continue the sequence, never reuse it.
	fresh.Append(Record{Kind: KindRunDone})
	if last := fresh.Recent(1); last[0].Seq != 4 {
		t.Fatalf("post-restore append Seq = %d, want 4", last[0].Seq)
	}

	// Restoring more records than capacity keeps the newest.
	small := newTimeline(2)
	small.Restore(recs, seq)
	got = small.Recent(0)
	if len(got) != 2 || got[0].Kind != KindSeal || got[1].Kind != KindRunStart {
		t.Fatalf("capacity-clipped restore = %+v", got)
	}
}

// TestNilTimelineSafe mirrors the journal nil contract for Timeline.
func TestNilTimelineSafe(t *testing.T) {
	var tl *Timeline
	tl.Append(Record{Kind: KindJoin})
	tl.Restore([]Record{{Kind: KindJoin}}, 7)
	if tl.Seq() != 0 {
		t.Fatalf("nil Seq = %d", tl.Seq())
	}
	if r := tl.Recent(5); r != nil {
		t.Fatalf("nil Recent = %v", r)
	}
}

// TestConfigDefaults pins the ring and timeline capacities to the values
// the journal has always defaulted to, and checks the zero Config is off.
func TestConfigDefaults(t *testing.T) {
	if RingCapacity != 256 || TimelineCapacity != 1024 {
		t.Fatalf("capacities %d/%d, want 256/1024", RingCapacity, TimelineCapacity)
	}
	if j := NewJournal("agent", Config{}); j != nil {
		t.Fatal("zero Config armed a journal")
	}
	if j := NewJournal("agent", Config{Enabled: true}); len(j.ring) != RingCapacity {
		t.Fatalf("journal ring %d, want %d", len(j.ring), RingCapacity)
	}
	if tl := NewTimeline(); len(tl.ring) != TimelineCapacity {
		t.Fatalf("timeline ring %d, want %d", len(tl.ring), TimelineCapacity)
	}
}
