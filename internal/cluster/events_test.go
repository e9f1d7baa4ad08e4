package cluster

import (
	"testing"
	"time"

	"elga/internal/client"
	"elga/internal/events"
)

// findEvent returns the first timeline record matching kind (and, when
// agentID is non-zero, carrying a matching numeric "agent" field), or
// nil.
func findEvent(tl []events.Record, kind string, agentID uint64) *events.Record {
	for i := range tl {
		r := &tl[i]
		if r.Kind != kind {
			continue
		}
		if agentID != 0 {
			f, ok := r.Field("agent")
			if !ok || f.IsStr || f.U64 != agentID {
				continue
			}
		}
		return r
	}
	return nil
}

// TestStatusHealthAndTimeline is the introspection smoke test: a cluster's
// TStatus reply carries every agent in the health table and a timeline
// whose join/seal history arrived from both the coordinator and the
// agents' shipped journals. One agent runs with an injected compute delay,
// and its straggler verdict lands in the timeline with the attributed
// cause.
func TestStatusHealthAndTimeline(t *testing.T) {
	c, err := New(Options{
		Config: testConfig(), Agents: 3,
		Events: &events.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	el := randomGraph(60, 200, 21)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	// The step time rides each barrier vote, so five steps of skew prime
	// every agent's signal and the victim's verdict is due at the next
	// evaluation (StatusEvents runs one).
	victimID := c.Agents()[1].ID()
	c.Agents()[1].SetComputeDelay(30 * time.Millisecond)
	_, err = c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 5, FromScratch: true, Timeout: 60 * time.Second})
	c.Agents()[1].SetComputeDelay(0)
	if err != nil {
		t.Fatal(err)
	}

	s, err := c.StatusEvents(0) // full retained timeline
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Agents) != 3 {
		t.Fatalf("health table has %d agents, want 3", len(s.Agents))
	}
	for _, a := range s.Agents {
		if a.Addr == "" {
			t.Fatalf("agent %d missing addr in %+v", a.AgentID, a)
		}
	}
	if s.EventSeq == 0 || len(s.Timeline) == 0 {
		t.Fatalf("timeline empty: seq=%d len=%d", s.EventSeq, len(s.Timeline))
	}
	// Coordinator-side history: every join was journalled.
	joins := 0
	for i := range s.Timeline {
		if s.Timeline[i].Kind == events.KindJoin && s.Timeline[i].Proc == "coordinator" {
			joins++
		}
	}
	if joins != 3 {
		t.Fatalf("timeline records %d coordinator joins, want 3", joins)
	}
	// Agent-side history: each agent ships its own join event (proc
	// "agent-<id>") in a report. Reports are lossy and ride the tick
	// cadence, so poll until the batch lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		agentJoin := false
		for i := range s.Timeline {
			if s.Timeline[i].Kind == events.KindJoin && s.Timeline[i].Proc != "coordinator" {
				agentJoin = true
				break
			}
		}
		if agentJoin {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no agent-shipped join event reached the timeline")
		}
		time.Sleep(20 * time.Millisecond)
		if s, err = c.StatusEvents(0); err != nil {
			t.Fatal(err)
		}
	}
	// Run lifecycle from the coordinator.
	if findEvent(s.Timeline, events.KindRunStart, 0) == nil || findEvent(s.Timeline, events.KindRunDone, 0) == nil {
		t.Fatal("run-start/run-done missing from timeline")
	}
	// The delayed agent's straggler (or suspect) verdict, with the cause
	// the attributor named.
	var verdict *events.Record
	for i := range s.Timeline {
		r := &s.Timeline[i]
		if agent, ok := r.Field("agent"); !ok || r.Kind != events.KindHealth || agent.U64 != victimID {
			continue
		}
		if st, _ := r.Field("status"); st.Str == "straggler" || st.Str == "suspect" {
			verdict = r
			break
		}
	}
	if verdict == nil {
		t.Fatal("no straggler or suspect verdict for the delayed agent in the timeline")
	}
	if f, ok := verdict.Field("cause"); !ok || f.Str == "" {
		t.Fatalf("delayed agent's verdict %+v carries no cause", verdict)
	}
	// Timeline arrives oldest-first with strictly increasing Seq.
	for i := 1; i < len(s.Timeline); i++ {
		if s.Timeline[i].Seq <= s.Timeline[i-1].Seq {
			t.Fatalf("timeline not in Seq order at %d: %d then %d", i, s.Timeline[i-1].Seq, s.Timeline[i].Seq)
		}
	}
	// A capped request returns exactly the newest n.
	capped, err := c.StatusEvents(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Timeline) != 2 {
		t.Fatalf("capped timeline has %d records, want 2", len(capped.Timeline))
	}
	// The reply is a single event-loop snapshot, so its newest record is
	// its own high-water mark (events may have flowed since the last call).
	if capped.Timeline[1].Seq != capped.EventSeq {
		t.Fatalf("capped timeline tail Seq = %d, want high-water %d", capped.Timeline[1].Seq, capped.EventSeq)
	}
}

// TestChaosTimelineCausalOrder fail-stops an agent and asserts the
// coordinator's merged timeline tells the recovery story in causal
// order: the lease eviction, then the migration round that re-owns the
// dead agent's ranges. Run under -race this also proves the
// journal/timeline plumbing is safe against the event loops.
func TestChaosTimelineCausalOrder(t *testing.T) {
	cfg := chaosConfig()
	c, err := New(Options{
		Config: cfg, Agents: 3,
		Events: &events.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	el := randomGraph(60, 200, 22)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}

	victim := c.Agents()[1]
	victimID := victim.ID()
	observer, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	if err := c.KillAgent(1); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, observer, 2, "eviction")

	s, err := c.StatusEvents(0)
	if err != nil {
		t.Fatal(err)
	}
	evict := findEvent(s.Timeline, events.KindEvict, victimID)
	if evict == nil {
		t.Fatalf("no evict event for agent %d in timeline", victimID)
	}
	if evict.Level != events.Warn {
		t.Fatalf("evict level = %v, want warn", evict.Level)
	}
	// The migration round the eviction opened — after the eviction.
	var migration *events.Record
	for i := range s.Timeline {
		r := &s.Timeline[i]
		if r.Kind == events.KindMigrationStart && r.Seq > evict.Seq {
			migration = r
			break
		}
	}
	if migration == nil {
		t.Fatal("no migration-start event after the eviction")
	}

	// The health plane must have dropped the corpse from the rollup.
	for _, a := range s.Agents {
		if a.AgentID == victimID {
			t.Fatalf("evicted agent %d still in health table", victimID)
		}
	}
	if len(s.Agents) != 2 {
		t.Fatalf("health table has %d agents after eviction, want 2", len(s.Agents))
	}
}

// TestTimelineSurvivesClusterRestart kills an entire deployment and
// boots a fresh one over the same durable sink: the merged event
// timeline must ride the coordinator checkpoint — pre-restart history
// intact, sequence counter resumed past the old high-water mark, and a
// restore event marking the recovery itself.
func TestTimelineSurvivesClusterRestart(t *testing.T) {
	cfg := chaosConfig()
	dur := durableOptions(t)
	ecfg := &events.Config{Enabled: true}
	el := randomGraph(60, 200, 23)

	c1, err := New(Options{Config: cfg, Agents: 3, Durability: dur, Events: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Load(el); err != nil {
		c1.Shutdown()
		t.Fatal(err)
	}
	if _, err := c1.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 4, FromScratch: true, Timeout: 60 * time.Second}); err != nil {
		c1.Shutdown()
		t.Fatal(err)
	}
	s1, err := c1.StatusEvents(0)
	if err != nil {
		c1.Shutdown()
		t.Fatal(err)
	}
	if s1.EventSeq == 0 {
		c1.Shutdown()
		t.Fatal("no events before restart")
	}
	// Seal forces a batch boundary, which checkpoints the coordinator —
	// the timeline snapshot the restart will restore from.
	if err := c1.Seal(); err != nil {
		c1.Shutdown()
		t.Fatal(err)
	}
	c1.Shutdown()

	c2, err := New(Options{Config: cfg, Agents: 3, Durability: dur, Events: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Shutdown)
	observer, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()
	waitMembers(t, observer, 3, "cluster restart")

	s2, err := c2.StatusEvents(0)
	if err != nil {
		t.Fatal(err)
	}
	// The sequence counter resumed past the first deployment's history:
	// restored seq plus the restart's own join/restore events.
	if s2.EventSeq <= s1.EventSeq {
		t.Fatalf("event seq did not resume: %d after restart, %d before", s2.EventSeq, s1.EventSeq)
	}
	// Pre-restart history survived: the first deployment's run lifecycle
	// is still in the merged timeline, at its original sequence numbers.
	runDone := findEvent(s2.Timeline, events.KindRunDone, 0)
	if runDone == nil {
		t.Fatal("pre-restart run-done lost across restart")
	}
	if runDone.Seq > s1.EventSeq {
		t.Fatalf("pre-restart run-done reassigned seq %d past old high-water %d", runDone.Seq, s1.EventSeq)
	}
	// And the recovery itself is journalled.
	if findEvent(s2.Timeline, events.KindRestore, 0) == nil {
		t.Fatal("no restore event after coordinator recovery")
	}
}
