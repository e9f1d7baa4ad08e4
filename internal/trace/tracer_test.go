package trace

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanContextInjectExtract(t *testing.T) {
	in := SpanContext{
		TraceHi: 0x0102030405060708, TraceLo: 0x090a0b0c0d0e0f10,
		SpanID: 0x1112131415161718, RunID: 99, Step: 12, Flags: FlagSampled,
	}
	buf := Inject(nil, in)
	if len(buf) != ContextWireLen {
		t.Fatalf("injected %d bytes, want %d", len(buf), ContextWireLen)
	}
	out, err := Extract(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	if _, err := Extract(buf[:ContextWireLen-1]); err == nil {
		t.Fatal("short extract accepted")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == 0 || seen[id] {
			t.Fatalf("id %x zero or repeated at iteration %d", id, i)
		}
		seen[id] = true
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	s := tr.StartRoot("x", 1)
	if s.Recording() || s.Context().Valid() {
		t.Fatal("nil tracer minted a live span")
	}
	s.End()
	if b := tr.TakeBatch(); b != nil {
		t.Fatalf("nil tracer produced a batch: %v", b)
	}
	var out bytes.Buffer
	if tr.DumpFlight(&out, "test"); out.Len() != 0 {
		t.Fatalf("nil tracer dumped: %q", out.String())
	}
	tr.SetProc("x")
	if tr.Proc() != "" || tr.Dropped() != 0 {
		t.Fatal("nil tracer has state")
	}
	if NewTracer("p", Config{}) != nil {
		t.Fatal("disabled config built a tracer")
	}
}

func TestTracerSpanLinkage(t *testing.T) {
	tr := NewTracer("coordinator", Config{Enabled: true, Sample: 1})
	root := tr.StartRoot("run", 7)
	if !root.Context().Valid() || !root.Context().Sampled() {
		t.Fatalf("root context %+v", root.Context())
	}
	step := tr.StartChild("step", root.WithStep(3))
	if step.Context().TraceHi != root.Context().TraceHi || step.Context().TraceLo != root.Context().TraceLo {
		t.Fatal("child switched traces")
	}
	if step.Context().Step != 3 {
		t.Fatalf("step epoch %d, want 3", step.Context().Step)
	}
	remote := tr.StartRemote("compute", step.Context())
	if remote.Context().SpanID == step.Context().SpanID {
		t.Fatal("remote span reused parent's span ID")
	}
	remote.End()
	step.End()
	root.End()
	batch := tr.TakeBatch()
	if len(batch) != 3 {
		t.Fatalf("batch has %d spans, want 3", len(batch))
	}
	byName := make(map[string]SpanRecord, 3)
	for _, r := range batch {
		byName[r.Name] = r
	}
	if byName["compute"].Parent != byName["step"].SpanID {
		t.Fatal("compute span not linked under step span")
	}
	if byName["step"].Parent != byName["run"].SpanID {
		t.Fatal("step span not linked under run span")
	}
	if byName["run"].Parent != 0 {
		t.Fatal("run span has a parent")
	}
	if tr.TakeBatch() != nil {
		t.Fatal("second TakeBatch not empty")
	}
}

func TestTracerUnsampledSpansStayOutOfBatch(t *testing.T) {
	tr := NewTracer("p", Config{Enabled: true})
	s := tr.StartRemote("run", SpanContext{TraceHi: 1, TraceLo: 2, SpanID: 3, RunID: 1})
	if s.Context().Sampled() {
		t.Fatal("a span under an unsampled parent is sampled")
	}
	s.End()
	if b := tr.TakeBatch(); b != nil {
		t.Fatalf("unsampled span shipped: %v", b)
	}
	// The flight recorder records regardless of sampling.
	if snap := tr.FlightSnapshot(); len(snap) != 1 || snap[0].Name != "run" {
		t.Fatalf("flight snapshot %v", snap)
	}
}

func TestTracerBackpressureDropsAndCounts(t *testing.T) {
	tr := newTracer("p", Config{Enabled: true, Sample: 1}, 8)
	for i := 0; i < maxPending+50; i++ {
		tr.StartRoot("s", uint32(i)).End()
	}
	if got := tr.Dropped(); got != 50 {
		t.Fatalf("dropped %d, want 50", got)
	}
	if got := len(tr.TakeBatch()); got != maxPending {
		t.Fatalf("batch %d, want %d", got, maxPending)
	}
}

func TestTracerStartRemoteAt(t *testing.T) {
	tr := NewTracer("client", Config{Enabled: true, Sample: 1})
	parent := tr.StartRoot("run", 1)
	start := time.Now().Add(-250 * time.Millisecond)
	tr.StartRemoteAt("client-run", parent.Context(), start).End()
	batch := tr.TakeBatch()
	if len(batch) != 1 {
		t.Fatalf("batch %v", batch)
	}
	if batch[0].Start != start.UnixNano() {
		t.Fatalf("span started %d, want %d", batch[0].Start, start.UnixNano())
	}
	if batch[0].Dur < 250*time.Millisecond {
		t.Fatalf("span duration %v shorter than the retroactive interval", batch[0].Dur)
	}
}

func TestTracerDumpFlightOnce(t *testing.T) {
	tr := newTracer("agent-1", Config{Enabled: true, Sample: 1}, 4)
	for i := 0; i < 6; i++ {
		tr.StartRoot("s", uint32(i)).End()
	}
	var out bytes.Buffer
	tr.DumpFlight(&out, "evicted")
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 4+1 {
		t.Fatalf("dump wrote %d lines, want a header and the ring's 4 spans:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "agent-1 flight-dump (evicted): 4 spans") {
		t.Fatalf("header %q", lines[0])
	}
	out.Reset()
	tr.DumpFlight(&out, "kill")
	if out.Len() != 0 {
		t.Fatalf("second dump wrote %q; the once-guard failed", out.String())
	}
}

// flightRuns returns the run IDs in tr's flight ring, oldest first.
func flightRuns(tr *Tracer) []uint32 {
	var ids []uint32
	for _, r := range tr.FlightSnapshot() {
		ids = append(ids, r.RunID)
	}
	return ids
}

// TestRingSinkPartialFill fills the flight ring partway: the snapshot holds
// exactly what was recorded, oldest first, with no empty slots.
func TestRingSinkPartialFill(t *testing.T) {
	tr := newTracer("p", Config{Enabled: true}, 4)
	if got := flightRuns(tr); len(got) != 0 {
		t.Fatalf("empty ring holds runs %v", got)
	}
	tr.StartRoot("s", 0).End()
	tr.StartRoot("s", 1).End()
	if got := flightRuns(tr); !slices.Equal(got, []uint32{0, 1}) {
		t.Fatalf("partial ring holds runs %v, want [0 1]", got)
	}
}

// TestRingSinkWrapsOldestFirst fills the flight ring past its capacity:
// the snapshot holds only the most recent spans, oldest first.
func TestRingSinkWrapsOldestFirst(t *testing.T) {
	tr := newTracer("p", Config{Enabled: true}, 4)
	for i := 0; i < 7; i++ {
		tr.StartRoot("s", uint32(i)).End()
	}
	if got := flightRuns(tr); !slices.Equal(got, []uint32{3, 4, 5, 6}) {
		t.Fatalf("wrapped ring holds runs %v, want [3 4 5 6]", got)
	}
}

// TestSpanBeginEnd checks a span's record brackets the work between its
// start and End.
func TestSpanBeginEnd(t *testing.T) {
	tr := NewTracer("p", Config{Enabled: true, Sample: 1})
	before := time.Now()
	sp := tr.StartRoot("phase", 1)
	time.Sleep(time.Millisecond)
	sp.End()
	batch := tr.TakeBatch()
	if len(batch) != 1 {
		t.Fatalf("batch %v", batch)
	}
	r := batch[0]
	if r.Name != "phase" || r.Start < before.UnixNano() || r.Dur < time.Millisecond {
		t.Fatalf("span %+v started before %d or lasted under 1ms", r, before.UnixNano())
	}
	if time.Unix(0, r.Start).Add(r.Dur).After(time.Now()) {
		t.Fatalf("span %+v ends in the future", r)
	}
}

// TestTracerConcurrent hammers one Tracer from many goroutines — spans
// opening and closing, batches draining, flight dumps — and relies on the
// race detector to catch unsynchronized state.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer("p", Config{Enabled: true, Sample: 1}, 32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartRoot("root", uint32(g))
				tr.StartRemote("child", root.Context()).End()
				root.End()
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tr.TakeBatch()
			tr.FlightSnapshot()
		}
	}()
	go func() {
		defer wg.Done()
		tr.DumpFlight(io.Discard, "concurrent")
		tr.SetProc("renamed")
		_ = tr.Proc()
	}()
	wg.Wait()
}

// TestZeroSampleExportsEveryRoot: a literal Config{Enabled: true} leaves
// Sample at zero, which exports every root, as the default always promised.
func TestZeroSampleExportsEveryRoot(t *testing.T) {
	tr := NewTracer("p", Config{Enabled: true})
	for i := 0; i < 64; i++ {
		s := tr.StartRoot("run", uint32(i))
		if !s.Context().Sampled() {
			t.Fatalf("root %d unsampled under Sample 0", i)
		}
		s.End()
	}
	if got := len(tr.TakeBatch()); got != 64 {
		t.Fatalf("batch holds %d spans, want 64", got)
	}
}
