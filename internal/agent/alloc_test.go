package agent

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/wire"
)

func allocTestConfig() config.Config {
	cfg := config.Default()
	cfg.SketchWidth = 256
	cfg.SketchDepth = 4
	cfg.Virtual = 8
	cfg.ReplicationThreshold = 0
	return cfg
}

// TestHandleVertexMsgsAcceptPathAllocs is the ceiling for the hot accept
// path: once the scratch decode buffer and the step's mailbox table are warm,
// accepting a batch this agent is a replica for must not allocate — the
// replica check resolves from the router's route table, no ack group is
// created when nothing forwards, and aggregates merge in place.
func TestHandleVertexMsgsAcceptPathAllocs(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	installRun(a, algorithm.PageRank{}, 64)
	a.run.started = true

	msgs := make([]wire.VertexMsg, 64)
	for i := range msgs {
		msgs[i] = wire.VertexMsg{
			Target: graph.VertexID(i),
			Via:    graph.VertexID(i + 1),
			Value:  wire.Word(algorithm.FromF64(0.25)),
		}
	}
	payload := wire.AppendVertexMsgBatch(nil, &wire.VertexMsgBatch{Step: 3, Msgs: msgs})
	pkt := &wire.Packet{Type: wire.TVertexMsgs, Payload: payload}

	// Warm: first delivery creates the step-3 table and its entries.
	if retained := a.handleVertexMsgs(pkt); retained {
		t.Fatal("accept path should not retain the packet")
	}

	allocs := testing.AllocsPerRun(100, func() {
		a.handleVertexMsgs(pkt)
	})
	if allocs > 0 {
		t.Fatalf("warm accept path allocates %v allocs per 64-message batch, want 0", allocs)
	}

	// The messages must actually have landed.
	e := a.mailbox[3].get(5)
	if e == nil || e.agg.F64() < 100*0.25 {
		t.Fatalf("mailbox entry missing or short: %+v", e)
	}
}

// TestSuperstepScatterPathAllocs bounds steady-state compute-phase
// allocations: with the route table, pooled batchers, and reusable phase
// shards warm, a whole superstep over 256 vertices should stay within a
// small constant of allocations (map growth internals), not O(vertices)
// or O(edges).
func TestSuperstepScatterPathAllocs(t *testing.T) {
	cfg := allocTestConfig()
	const n = 256
	a := newLoopbackAgent(t, cfg, n)
	for i := 0; i < n; i++ {
		src, dst := graph.VertexID(i), graph.VertexID((i+1)%n)
		a.store.AddEdge(src, dst, graph.Out)
		a.store.AddEdge(src, dst, graph.In)
	}
	installRun(a, algorithm.PageRank{}, n)
	advanceCompute(a, 0) // init + first scatter; warms every pool
	advanceCompute(a, 1)
	advanceCompute(a, 2)

	step := uint32(3)
	allocs := testing.AllocsPerRun(20, func() {
		advanceCompute(a, step)
		step++
	})
	// One superstep = 256 gather→update→scatter cycles. The sequential
	// pre-refactor path allocated a batcher map, a ReplicaSet slice per
	// scattered edge, and a fresh work map per step; the ceiling asserts
	// those are gone. A few allocs of slack cover map-internal growth.
	if allocs > 16 {
		t.Fatalf("steady-state superstep allocates %v allocs, want <= 16", allocs)
	}
}
