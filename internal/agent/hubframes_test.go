package agent

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/graph"
	"elga/internal/wire"
)

// TestPartialFrameRebucketsByCurrentMaster hands an agent one frame of
// replica partials sent under a stale view: the records it masters are
// stashed and their vertices pinned, the others leave again in one frame per
// current master, and the frame's ack waits for those frames' acks — the
// sender's barrier covers the extra hop.
func TestPartialFrameRebucketsByCurrentMaster(t *testing.T) {
	r := newMigrationRig(t)
	a := r.a
	if _, err := a.installView(r.view(t, 2, 1, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	installRun(a, algorithm.PageRank{}, 1<<10)
	a.run.started = true

	// Six vertices mastered at each member, interleaved in one payload.
	byMaster := map[uint64][]graph.VertexID{}
	var payload []byte
	for v := graph.VertexID(100); len(byMaster[1]) < 6 || len(byMaster[2]) < 6 || len(byMaster[3]) < 6; v++ {
		m, _ := a.router.Master(v)
		if len(byMaster[uint64(m)]) == 6 {
			continue
		}
		byMaster[uint64(m)] = append(byMaster[uint64(m)], v)
		payload = wire.AppendReplicaPartial(payload, &wire.ReplicaPartial{
			Step: 4, Vertex: v, Agg: wire.Word(algorithm.FromF64(0.25)), HaveMsgs: true, LocalOutDeg: uint64(v),
		})
	}
	pkt := wire.GetPacket()
	pkt.Type, pkt.Payload = wire.TReplicaPartial, payload
	if !a.handlePartial(pkt) {
		t.Fatal("a frame that forwarded records must be retained until they are acknowledged")
	}
	if len(a.reqToGroups) != 2 {
		t.Fatalf("%d sends outstanding, want one per other master", len(a.reqToGroups))
	}
	for _, v := range byMaster[1] {
		p, ok := a.partials[4][v]
		if !ok || p.outDeg != uint64(v) || !p.have || !a.store.HasVertex(v) {
			t.Fatalf("vertex %d mastered here: stashed %v %+v, pinned %v", v, ok, p, a.store.HasVertex(v))
		}
	}
	if len(a.partials[4]) != 6 {
		t.Fatalf("%d partials stashed, want 6", len(a.partials[4]))
	}
	r.drain(t)
	for id := uint64(2); id <= 3; id++ {
		frames := r.rec.log(r.peers[id]).partials
		if len(frames) != 1 || len(frames[0]) != 6 {
			t.Fatalf("agent %d received %d frames %v, want one of 6 records", id, len(frames), frames)
		}
		for i, rec := range frames[0] {
			if rec.Vertex != byMaster[id][i] || rec.Step != 4 || rec.LocalOutDeg != uint64(rec.Vertex) {
				t.Fatalf("agent %d record %d: %+v, want vertex %d", id, i, rec, byMaster[id][i])
			}
		}
	}
	if got, _, _ := a.Stats(); got != 12 {
		t.Fatalf("forwarded counter %d, want 12", got)
	}

	// A frame mastered here entirely is acknowledged at once.
	pkt = wire.GetPacket()
	pkt.Type = wire.TReplicaPartial
	pkt.Payload = wire.AppendReplicaPartial(nil, &wire.ReplicaPartial{Step: 4, Vertex: byMaster[1][0], LocalOutDeg: 1})
	if a.handlePartial(pkt) {
		t.Fatal("a frame stashed whole must not be retained")
	}
	wire.ReleasePacket(pkt)
	if p := a.partials[4][byMaster[1][0]]; p.outDeg != uint64(byMaster[1][0])+1 {
		t.Fatalf("second partial not folded: %+v", p)
	}
}

// TestValueUpdateFrameRebindsOnStepChange: records of one frame share a step
// as sent, but the receiver does not rely on it — a frame whose records name
// two steps scatters each into its own step's mail.
func TestValueUpdateFrameRebindsOnStepChange(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 16)
	installRun(a, algorithm.PageRank{}, 16)
	a.run.started = true
	a.store.AddEdge(1, 10, graph.Out)
	a.store.AddEdge(1, 11, graph.Out)
	a.store.AddEdge(2, 10, graph.Out)
	a.store.AddEdge(3, 12, graph.Out)
	a.store.Compact()
	var payload []byte
	for _, u := range []wire.ValueUpdate{
		{Step: 5, Vertex: 1, State: wire.Word(algorithm.FromF64(0.5)), TotalOutDeg: 2, Scatter: true},
		{Step: 5, Vertex: 3, State: wire.Word(algorithm.FromF64(0.1)), TotalOutDeg: 1, Scatter: false},
		{Step: 8, Vertex: 2, State: wire.Word(algorithm.FromF64(0.3)), TotalOutDeg: 1, Scatter: true},
	} {
		payload = wire.AppendValueUpdate(payload, &u)
	}
	pkt := wire.GetPacket()
	pkt.Type, pkt.Payload = wire.TValueUpdate, payload
	if !a.handleValueUpdate(pkt) {
		t.Fatal("a scattering frame is retained as its group's origin (and released when it drains)")
	}
	for v, want := range map[graph.VertexID]float64{1: 0.5, 2: 0.3, 3: 0.1} {
		if got := stateOf(a, v).F64(); got != want {
			t.Fatalf("vertex %d state %v, want %v", v, got, want)
		}
	}
	has := func(step uint32, v graph.VertexID) bool { _, ok := mailAt(a, step, v); return ok }
	if mailLen(a, 6) == 0 || mailLen(a, 9) == 0 {
		t.Fatalf("mail for steps 6 and 9: %d and %d entries", mailLen(a, 6), mailLen(a, 9))
	}
	if !has(6, 10) || !has(6, 11) || has(6, 12) {
		t.Fatal("step 5's scatter: vertex 1 reaches 10 and 11, vertex 3 (Scatter unset) nothing")
	}
	if !has(9, 10) || has(9, 11) {
		t.Fatal("step 8's scatter must land in step 9's mail alone")
	}
}
