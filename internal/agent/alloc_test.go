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
// path: once the scratch decode buffer and the step's mail are warm,
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

	// Warm: first delivery sizes step 3's mail and makes its entries.
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
	if w, ok := mailAt(a, 3, 5); !ok || w.F64() < 100*0.25 {
		t.Fatalf("mail entry missing or short: %v %v", w, ok)
	}
}

// TestSuperstepScatterPathAllocs bounds steady-state compute-phase
// allocations: with the route table and reusable phase shards warm, a
// whole superstep over 256 vertices should stay within a small constant of
// allocations (map growth internals), not O(vertices) or O(edges).
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

// newHubAgent returns a loopback agent (ID 1) under a view of three members
// whose sketch splits n vertices three ways, all mastered at agent 1 and
// each holding four out-copies here. Agents 2 and 3 live at addresses
// nobody listens on: a send to them fails at the dial, so what the tests
// below count is the agent's own work per frame, not a peer's.
func newHubAgent(t *testing.T, n int) (*Agent, []graph.VertexID) {
	t.Helper()
	cfg := allocTestConfig()
	cfg.SketchWidth = 4096
	cfg.ReplicationThreshold, cfg.MaxReplicas = 16, 3
	a := newLoopbackAgent(t, cfg, 1<<16)
	view := &wire.View{Epoch: 2, BatchID: 2, N: 1 << 16, Agents: []wire.AgentInfo{
		{ID: 1, Addr: a.ep.Addr()}, {ID: 2, Addr: "nobody-2"}, {ID: 3, Addr: "nobody-3"},
	}}
	if _, err := a.installView(view); err != nil {
		t.Fatal(err)
	}
	var hubs []graph.VertexID
	sk := cfg.NewSketch()
	for v := graph.VertexID(1000); len(hubs) < n; v++ {
		if m, _ := a.router.Master(v); m == 1 {
			hubs = append(hubs, v)
			sk.AddN(uint64(v), 48)
		}
	}
	view.Epoch, view.Sketch = 3, sk.AppendBinary(nil)
	if _, err := a.installView(view); err != nil {
		t.Fatal(err)
	}
	for i, h := range hubs {
		if m, _ := a.router.Master(h); m != 1 || a.router.Replicas(h) != 3 {
			t.Fatalf("hub %d: master %d, %d replicas", h, m, a.router.Replicas(h))
		}
		for j := 0; j < 4; j++ {
			a.store.AddEdge(h, graph.VertexID(100000+8*i+j), graph.Out)
		}
	}
	a.store.Compact()
	return a, hubs
}

// TestCombineHubsAllocs is the combine phase's ceiling: the master of 64
// split vertices folds their partials, scatters, and ships 128 value updates
// in one frame per peer, so the phase allocates per peer — the send
// bookkeeping of a handful of frames — not per hub: the step's partial map
// is recycled, its entries live in it by value, and no hub owns a frame.
func TestCombineHubsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	a, hubs := newHubAgent(t, 64)
	installRun(a, algorithm.PageRank{}, 1<<16)
	a.run.started = true
	step := uint32(1)
	combine := func() {
		for _, h := range hubs {
			a.stashPartial(step, h, algorithm.FromF64(0.01), true, 4)
			a.stashPartial(step, h, algorithm.FromF64(0.02), true, 7)
		}
		advanceCombine(a, step)
		step++
	}
	combine() // warms the shards, the partial map and the frame hints
	combine()
	if allocs := testing.AllocsPerRun(20, combine); allocs > 32 {
		t.Fatalf("a combine phase over 64 hubs allocates %v times, want <= 32", allocs)
	}
	prog := a.run.prog
	agg := prog.MergeAgg(prog.MergeAgg(prog.ZeroAgg(), algorithm.FromF64(0.01)), algorithm.FromF64(0.02))
	if want, _ := prog.Update(hubs[0], 0, agg, true, &a.run.ctx); stateOf(a, hubs[0]) != want {
		t.Fatalf("hub %d combined state %v, want %v", hubs[0], stateOf(a, hubs[0]), want)
	}
}

// TestValueUpdateFrameAllocs is the replica side's ceiling: one frame of 64
// scatter-bearing value updates installs 64 states and scatters 256 edges
// through one shard, one delivery and one ack group.
func TestValueUpdateFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	a, hubs := newHubAgent(t, 64)
	installRun(a, algorithm.PageRank{}, 1<<16)
	a.run.started = true
	var payload []byte
	for _, h := range hubs {
		payload = wire.AppendValueUpdate(payload, &wire.ValueUpdate{
			Step: 5, Vertex: h, State: wire.Word(algorithm.FromF64(0.5)), TotalOutDeg: 12, Scatter: true,
		})
	}
	handle := func() {
		// The handler parks the packet as its group's origin and releases it
		// to the pool when the group drains, so each call needs its own.
		pkt := wire.GetPacket()
		pkt.Type, pkt.Payload = wire.TValueUpdate, payload
		if !a.handleValueUpdate(pkt) {
			t.Fatal("a scattering frame must be retained as its group's origin")
		}
	}
	handle()
	handle()
	if allocs := testing.AllocsPerRun(20, handle); allocs > 12 {
		t.Fatalf("a 64-record value-update frame allocates %v times, want <= 12", allocs)
	}
	if got := stateOf(a, hubs[63]); got != algorithm.FromF64(0.5) {
		t.Fatalf("hub %d state not installed: %v", hubs[63], got)
	}
}
