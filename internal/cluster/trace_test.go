package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"elga/internal/client"
	"elga/internal/trace"
	"elga/internal/trace/collect"
)

// TestChaosTraceExport is the trace-smoke acceptance run: a traced
// cluster survives a killed agent (exercising the flight-recorder dump
// paths), then a PageRank run must export valid Chrome trace-event JSON in
// which the client, coordinator, and every surviving agent share one trace
// ID, with barrier-wait time attributed per agent per superstep. A traced
// run under drops and delays is the simulator's TestChaosTracedPageRank:
// span batches ride lossy report frames, so asserting span presence while
// frames drop would test the dice, not the tracer.
func TestChaosTraceExport(t *testing.T) {
	cfg := chaosConfig()
	c, err := New(Options{
		Config: cfg, Agents: 3,
		Trace: &trace.Config{Enabled: true, Sample: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if c.Collector() == nil {
		t.Fatal("traced cluster has no collector")
	}

	el := randomGraph(60, 240, 13)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}

	// Phase 1: fail-stop one agent (KillAgent force-dumps its flight
	// recorder through the event loop) and wait for the lease sweep to
	// evict the corpse.
	epochBefore := c.Epoch()
	if err := c.KillAgent(2); err != nil {
		t.Fatal(err)
	}
	observer, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, _, _ = observer.QueryWith(0, chaosCall) // drains pending view broadcasts
		if observer.Epoch() > epochBefore && observer.NumAgents() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim not evicted: epoch %d->%d, members %d",
				epochBefore, observer.Epoch(), observer.NumAgents())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Phase 2: the verification PageRank. Every span batch must arrive.
	stats, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 4, FromScratch: true, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 {
		t.Fatalf("verification run took no steps: %+v", stats)
	}

	// Agents flush spans when TAlgoDone lands, which can trail the run
	// reply; poll until the run's timeline holds every participant.
	survivors := []string{
		fmt.Sprintf("agent-%d", c.Agents()[0].ID()),
		fmt.Sprintf("agent-%d", c.Agents()[1].ID()),
	}
	var tl collect.Timeline
	deadline = time.Now().Add(15 * time.Second)
	for {
		tl = findRunTimeline(c.Collector().Timelines(), stats.RunID)
		if timelineComplete(tl, survivors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d timeline incomplete after wait: %+v", stats.RunID, tl.Spans)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One trace ID per run: the coordinator's root, the client's linked
	// run span, and every agent span live in the same timeline (timelines
	// are keyed by trace ID, so membership IS the shared-ID assertion).
	byName := func(proc, name string) []trace.SpanRecord {
		var out []trace.SpanRecord
		for _, s := range tl.Spans[proc] {
			if s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	roots := byName("coordinator", "run")
	if len(roots) != 1 || roots[0].Parent != 0 {
		t.Fatalf("coordinator root spans %+v", roots)
	}
	if got := len(byName("coordinator", "step")); got != int(stats.Steps) {
		t.Errorf("%d coordinator step spans, want %d", got, stats.Steps)
	}
	if len(byName("client", "client-run")) != 1 {
		t.Errorf("client lane %+v", tl.Spans["client"])
	}
	for _, proc := range survivors {
		// Each surviving agent computed every superstep and accounted its
		// barrier wait per step under the shared trace.
		steps := make(map[uint32]bool)
		for _, s := range byName(proc, "compute") {
			steps[s.Step] = true
		}
		if len(steps) != int(stats.Steps) {
			t.Errorf("%s compute spans cover %d steps, want %d", proc, len(steps), stats.Steps)
		}
		waits := make(map[uint32]bool)
		for _, s := range byName(proc, "barrier-wait") {
			waits[s.Step] = true
		}
		if len(waits) < int(stats.Steps)-1 {
			t.Errorf("%s barrier-wait spans cover %d steps, want >= %d", proc, len(waits), stats.Steps-1)
		}
		for _, s := range tl.Spans[proc] {
			if s.RunID != stats.RunID {
				t.Errorf("%s span %q carries run %d, want %d", proc, s.Name, s.RunID, stats.RunID)
			}
		}
	}

	// The export must parse as Chrome trace-event JSON and carry the
	// run's trace ID on every duration event.
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v", err)
	}
	wantTrace := fmt.Sprintf("%016x%016x", tl.TraceHi, tl.TraceLo)
	found := 0
	for _, e := range out.TraceEvents {
		if e.Ph == "X" && e.Args["trace"] == wantTrace {
			found++
		}
	}
	if found < len(tl.Spans["coordinator"]) {
		t.Fatalf("export holds %d events for trace %s, want at least the coordinator lane (%d)",
			found, wantTrace, len(tl.Spans["coordinator"]))
	}
	if s := c.TraceSummary(); s == "" {
		t.Fatal("empty trace summary")
	}
}

// TestJoinRecordsMigrateSpan: an agent's migration round is a span of its
// own, so after one join round on a traced cluster the joiner's flight ring
// holds a root "migrate" span, as do the incumbents that shipped it copies.
func TestJoinRecordsMigrateSpan(t *testing.T) {
	c, err := New(Options{
		Config: testConfig(), Agents: 2,
		Trace: &trace.Config{Enabled: true, Sample: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(randomGraph(100, 400, 7)); err != nil {
		t.Fatal(err)
	}
	joiner, err := c.AddAgent()
	if err != nil {
		t.Fatal(err)
	}
	// The seal waits for the join's migration round to close, and every
	// agent's vote in it follows the end of its migrate span.
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, a := range c.Agents() {
		found := false
		for _, s := range a.Tracer().FlightSnapshot() {
			if s.Name == "migrate" {
				found = true
				if s.Parent != 0 || s.Dur <= 0 {
					t.Errorf("agent %d: migrate span %+v is not a finished root", a.ID(), s)
				}
			}
		}
		if !found {
			t.Errorf("agent %d (joiner %v): no migrate span in the flight ring", a.ID(), a == joiner)
		}
	}
}

// findRunTimeline picks the timeline for a run ID (zero value if absent).
func findRunTimeline(tls []collect.Timeline, runID uint32) collect.Timeline {
	for _, tl := range tls {
		if tl.RunID == runID {
			return tl
		}
	}
	return collect.Timeline{}
}

// timelineComplete reports whether every expected participant has landed
// at least one span in the timeline.
func timelineComplete(tl collect.Timeline, agents []string) bool {
	if len(tl.Spans["coordinator"]) == 0 || len(tl.Spans["client"]) == 0 {
		return false
	}
	for _, proc := range agents {
		var compute, wait bool
		for _, s := range tl.Spans[proc] {
			switch s.Name {
			case "compute":
				compute = true
			case "barrier-wait":
				wait = true
			}
		}
		if !compute || !wait {
			return false
		}
	}
	return true
}
