package agent

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/graph"
	"elga/internal/trace"
	"elga/internal/wire"
)

// insertFresh applies a stream batch inserting the edges (u, u+1) for u in
// [from, to), both copies: its vertices are active and have no value until a
// run reaches them.
func insertFresh(a *Agent, from, to graph.VertexID) {
	var changes []wire.EdgeChange
	for u := from; u < to; u++ {
		for _, dir := range []graph.Dir{graph.Out, graph.In} {
			changes = append(changes, wire.EdgeChange{Action: graph.Insert, Src: u, Dst: u + 1, Dir: dir})
		}
	}
	a.applyChanges(changes, &ackGroup{})
}

// TestFreshVertexKeepsItsActivationWhenItMoves: vertices a batch inserted
// that move to another agent before any run reaches them travel with their
// activation alone (a NoValue state). The receiver marks them active and
// installs no value, so the next incremental run — synchronous or
// asynchronous — computes them there.
func TestFreshVertexKeepsItsActivationWhenItMoves(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			r := newMigrationRig(t)
			a := r.a
			const noHub = graph.VertexID(1) << 50
			insertFresh(a, 100, 140)
			two := r.view(t, 2, noHub, 1, 2)
			a.handleView(two)
			r.drain(t)

			moved := map[graph.VertexID]bool{}
			for _, b := range r.received(2) {
				for _, run := range b.Runs {
					moved[run.Key] = true
				}
				for _, st := range b.States {
					if !st.Active || !st.NoValue {
						t.Fatalf("fresh vertex %d shipped as %+v, want active with no value", st.Vertex, st)
					}
				}
			}
			if len(moved) == 0 {
				t.Fatal("test input: no fresh vertex moved to agent 2")
			}

			b, brec := newRecordedAgent(t, r.cfg, 0)
			brec.addr, b.id = r.peers[2], 2
			b.handleView(two)
			for _, pkt := range r.rec.log(r.peers[2]).pkts {
				if pkt.Type == wire.TEdges {
					b.Handle(pkt)
				}
			}
			for v := range moved {
				if !b.store.HasVertex(v) || !b.store.IsActive(v) {
					t.Fatalf("moved vertex %d: held %v, active %v", v, b.store.HasVertex(v), b.store.IsActive(v))
				}
				if w, ok := b.verts.get(v); ok {
					t.Fatalf("moved vertex %d was given the value %v it never had", v, w)
				}
			}

			b.handleAlgoStart(&wire.Packet{Type: wire.TAlgoStart,
				Payload: wire.AppendAlgoStart(nil, &wire.AlgoStart{RunID: 1, Algo: "wcc", Async: async})})
			if !async {
				b.handleAdvance(&wire.Advance{Step: 0, Phase: wire.PhaseCompute, RunID: 1}, trace.SpanContext{})
			}
			for v := range moved {
				if w, ok := b.verts.get(v); !ok || w > algorithm.Word(v) {
					t.Fatalf("moved vertex %d after the run's first step: value %v (set %v)", v, w, ok)
				}
			}
		})
	}
}

// TestFreshVertexSurvivesCheckpoint: a checkpoint taken between a batch and
// its run keeps the activation of the vertices the batch inserted, and the
// restore marks them active without giving them a value.
func TestFreshVertexSurvivesCheckpoint(t *testing.T) {
	cfg := &checkpoint.Config{Enabled: true, Dir: t.TempDir(), Key: "fresh", EverySteps: 1 << 30}
	a, _ := newRecordedAgent(t, allocTestConfig(), 0)
	a.opts.Checkpoint = cfg
	if err := a.initCheckpoint(); err != nil {
		t.Fatal(err)
	}
	insertFresh(a, 100, 110)
	a.checkpointNow(true)
	a.closeCheckpoint()

	b, _ := newRecordedAgent(t, allocTestConfig(), 0)
	b.opts.Checkpoint = cfg
	if err := b.initCheckpoint(); err != nil {
		t.Fatal(err)
	}
	defer b.closeCheckpoint()
	for v := graph.VertexID(100); v <= 110; v++ {
		if !b.store.HasVertex(v) || !b.store.IsActive(v) {
			t.Fatalf("restored vertex %d: held %v, active %v", v, b.store.HasVertex(v), b.store.IsActive(v))
		}
		if w, ok := b.verts.get(v); ok {
			t.Fatalf("restored vertex %d was given the value %v it never had", v, w)
		}
	}
}
