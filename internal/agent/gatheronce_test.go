package agent

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// inDegreeProg counts messages instead of combining their values: Gather
// adds one per message whatever it carries, MergeAgg adds two counts. Every
// vertex scatters at step 0, takes the count it gathers at step 1 as its
// state (activating once more, so split vertices' replicas are sent it),
// and keeps it: the state is the vertex's in-degree — provided each logical
// message was gathered exactly once.
// A hop that gathers an aggregate counts it as one message; a hop that
// merges a raw message adds its value (7) instead of one. It is the one
// program here whose Gather is not its MergeAgg, which is what makes the
// Gather-once invariant testable.
type inDegreeProg struct{}

const inDegreeName = "test-indegree"

func init() { algorithm.Register(inDegreeName, func() algorithm.Program { return inDegreeProg{} }) }

func (inDegreeProg) Name() string                                           { return inDegreeName }
func (inDegreeProg) Init(graph.VertexID, *algorithm.Context) algorithm.Word { return 0 }
func (inDegreeProg) InitActive(graph.VertexID, *algorithm.Context) bool     { return true }
func (inDegreeProg) ZeroAgg() algorithm.Word                                { return 0 }
func (inDegreeProg) Gather(agg, _ algorithm.Word) algorithm.Word            { return agg + 1 }
func (inDegreeProg) MergeAgg(a, b algorithm.Word) algorithm.Word            { return a + b }
func (inDegreeProg) Update(_ graph.VertexID, old, agg algorithm.Word, _ bool, ctx *algorithm.Context) (algorithm.Word, bool) {
	switch ctx.Step {
	case 0:
		return 0, true
	case 1:
		return agg, true
	}
	return old, false
}
func (inDegreeProg) Residual(_, _ algorithm.Word) float64 { return 0 }
func (inDegreeProg) MessageValue(graph.VertexID, algorithm.Word, uint64, *algorithm.Context) algorithm.Word {
	return 7
}
func (inDegreeProg) SendsOut() bool         { return true }
func (inDegreeProg) SendsIn() bool          { return false }
func (inDegreeProg) HaltOnQuiescence() bool { return true }

// vertexMsgPacket frames a synchronous batch the way a peer's send would
// arrive at handleVertexMsgs.
func vertexMsgPacket(step uint32, msgs ...wire.VertexMsg) *wire.Packet {
	return &wire.Packet{Type: wire.TVertexMsgs,
		Payload: wire.AppendVertexMsgBatch(nil, &wire.VertexMsgBatch{Step: step, Msgs: msgs})}
}

// TestGatherOnceOnReceivePaths walks one vertex's mail through every hop
// that is not the source: aggregates that arrive before the run exists (the
// raw list), aggregates that arrive after, and the agent's own scatter. The
// counts must add up to the logical message count.
func TestGatherOnceOnReceivePaths(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	// Before TAlgoStart: two senders' aggregates for vertex 5 (3 and 2
	// messages), one for vertex 6.
	a.handleVertexMsgs(vertexMsgPacket(1,
		wire.VertexMsg{Target: 5, Via: 1, Value: 3},
		wire.VertexMsg{Target: 5, Via: 2, Value: 2},
		wire.VertexMsg{Target: 6, Via: 2, Value: 1}))
	if len(a.prerun) == 0 {
		t.Fatal("aggregates delivered without a run did not wait raw")
	}
	installRun(a, inDegreeProg{}, 64)
	a.run.started = true
	// After it: a third sender's aggregate of 4 messages.
	a.handleVertexMsgs(vertexMsgPacket(1, wire.VertexMsg{Target: 5, Via: 3, Value: 4}))
	// And two messages this agent scatters itself, which it gathers.
	self, _ := a.router.MemberIndex(consistent.AgentID(a.id))
	s := a.sink()
	s.add(self, wire.VertexMsg{Target: 5, Via: 8, Value: 7})
	s.add(self, wire.VertexMsg{Target: 5, Via: 9, Value: 7})
	a.flushPhase(s, 1, consistent.AgentID(a.id))
	advanceCompute(a, 1)
	if got := stateOf(a, 5); got != 3+2+4+2 {
		t.Errorf("vertex 5 counted %d messages, want 11", got)
	}
	if got := stateOf(a, 6); got != 1 {
		t.Errorf("vertex 6 counted %d messages, want 1", got)
	}
}

// TestGatherOnceOnForwardAndReroute: an aggregate this agent cannot serve —
// a stale-view batch to forward, a mail entry to re-route after a view
// change — travels on with its value untouched.
func TestGatherOnceOnForwardAndReroute(t *testing.T) {
	a, rec := newRecordedAgent(t, allocTestConfig(), 64)
	installRun(a, inDegreeProg{}, 64)
	// With the peer in the view, find a vertex each of the two serves.
	mine, theirs := graph.VertexID(0), graph.VertexID(0)
	view := &wire.View{Epoch: 2, BatchID: 2, N: 64, Agents: []wire.AgentInfo{
		{ID: a.id, Addr: a.ep.Addr()}, {ID: 2, Addr: "peer-2"},
	}}
	if _, err := a.installView(view); err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(1); mine == 0 || theirs == 0; v++ {
		if a.isReplicaOf(v) {
			mine = v
		} else {
			theirs = v
		}
	}
	// Forward: an aggregate of 9 messages for the peer's vertex, next to
	// one this agent keeps.
	if retained := a.handleVertexMsgs(vertexMsgPacket(2,
		wire.VertexMsg{Target: theirs, Via: 1, Value: 9},
		wire.VertexMsg{Target: mine, Via: 1, Value: 5})); !retained {
		t.Fatal("a forwarding batch must keep its packet until the forward is acked")
	}
	if w, ok := mailAt(a, 2, mine); !ok || w != 5 {
		t.Fatalf("kept aggregate = %v %v, want 5", w, ok)
	}
	if _, ok := mailAt(a, 2, theirs); ok {
		t.Fatal("forwarded aggregate also landed in the local mail")
	}
	// Re-route: mail for the peer's vertex that was accepted earlier (4
	// messages, then 2 more) leaves as one aggregate of 6.
	for _, e := range []wire.VertexMsg{{Target: theirs, Value: 4}, {Target: theirs, Value: 2}, {Target: mine, Value: 1}} {
		i := a.verts.at(e.Target)
		a.verts.mailOf(3).merge(a.run.prog, false, i, algorithm.Word(e.Value))
	}
	a.migrate(2, nil, false)
	if _, ok := mailAt(a, 3, theirs); ok || mailLen(a, 3) != 1 {
		t.Fatalf("re-routed entry still held (%d entries)", mailLen(a, 3))
	}
	got := rec.log("peer-2").msgs
	want := []wire.VertexMsg{{Target: theirs, Via: 1, Value: 9}, {Target: theirs, Via: theirs, Value: 6}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("peer received %+v, want %+v", got, want)
	}
}

// TestSketchOnlyRerouteMovesOnlyReroutedMail: after a view that moved only
// the sketch, the pending mail of the rerouted vertices leaves for their
// replica, each entry as one aggregate; the mail of a vertex the view did not
// reroute is not looked at, served here or not.
func TestSketchOnlyRerouteMovesOnlyReroutedMail(t *testing.T) {
	a, rec := newRecordedAgent(t, allocTestConfig(), 64)
	installRun(a, inDegreeProg{}, 64)
	mergeView(t, a, 2, 2)
	var theirs []graph.VertexID
	for v := graph.VertexID(1); len(theirs) < 2; v++ {
		if !a.isReplicaOf(v) {
			theirs = append(theirs, v)
		}
	}
	for _, v := range theirs {
		i := a.verts.at(v)
		a.verts.mailOf(3).merge(a.run.prog, false, i, 4)
	}
	a.migrate(2, theirs[:1], true)
	if _, ok := mailAt(a, 3, theirs[0]); ok {
		t.Fatal("the rerouted vertex's mail stayed")
	}
	if w, ok := mailAt(a, 3, theirs[1]); !ok || w != 4 || mailLen(a, 3) != 1 {
		t.Fatalf("the other vertex's entry = %v %v (%d entries), want it untouched", w, ok, mailLen(a, 3))
	}
	if got := rec.log("peer-2").msgs; len(got) != 1 || got[0] != (wire.VertexMsg{Target: theirs[0], Via: theirs[0], Value: 4}) {
		t.Fatalf("peer received %+v, want the rerouted vertex's aggregate", got)
	}
}

// TestAcceptAggsLooksATargetUpOnce: a target is looked up in the route table
// at most once per view. A target with an entry in the step's mail is not
// checked at all. The router is moved to a view that lists the
// peer alone behind the mail's back — handleView would have re-routed the
// entries — so a lookup would send everything away: the target with a live
// entry still merges, a target without one is still forwarded, and neither
// is gathered again. A target with a vertex record is answered from the
// record's stamp until the next view: moved behind the table's back too, it
// is still served here, and only once the table is restamped is it
// forwarded.
func TestAcceptAggsLooksATargetUpOnce(t *testing.T) {
	a, rec := newRecordedAgent(t, allocTestConfig(), 64)
	installRun(a, inDegreeProg{}, 64)
	a.run.started = true
	const held, stranger = graph.VertexID(5), graph.VertexID(6)
	if a.handleVertexMsgs(vertexMsgPacket(1, wire.VertexMsg{Target: held, Via: 1, Value: 3})) {
		t.Fatal("an accepted batch must not be retained")
	}
	view := &wire.View{Epoch: 2, BatchID: 2, N: 64, Agents: []wire.AgentInfo{{ID: 2, Addr: "peer-2"}}}
	if _, err := a.installView(view); err != nil {
		t.Fatal(err)
	}
	if a.isReplicaOf(held) {
		t.Fatal("the test wants a view under which the held target is another agent's")
	}
	if retained := a.handleVertexMsgs(vertexMsgPacket(1,
		wire.VertexMsg{Target: held, Via: 2, Value: 4},
		wire.VertexMsg{Target: stranger, Via: 2, Value: 9})); !retained {
		t.Fatal("the stranger's aggregate must be forwarded, its packet kept until that is acked")
	}
	if got := rec.log("peer-2").msgs; len(got) != 1 || got[0] != (wire.VertexMsg{Target: stranger, Via: 2, Value: 9}) {
		t.Fatalf("peer received %+v, want the stranger's aggregate untouched", got)
	}
	if w, ok := mailAt(a, 1, held); !ok || w != 3+4 {
		t.Fatalf("held target's entry = %v %v, want the two aggregates merged", w, ok)
	}
	if _, ok := mailAt(a, 1, stranger); ok || mailLen(a, 1) != 1 {
		t.Fatalf("the forwarded target left an entry (%d entries)", mailLen(a, 1))
	}
	// The killed slot starts over: under a view that serves it here, the
	// stranger's next aggregate is looked up again and accepted.
	view = &wire.View{Epoch: 3, BatchID: 3, N: 64, Agents: []wire.AgentInfo{{ID: a.id, Addr: a.ep.Addr()}}}
	if _, err := a.installView(view); err != nil {
		t.Fatal(err)
	}
	if a.handleVertexMsgs(vertexMsgPacket(1, wire.VertexMsg{Target: stranger, Via: 2, Value: 2})) {
		t.Fatal("an accepted batch must not be retained")
	}
	if w, ok := mailAt(a, 1, stranger); !ok || w != 2 {
		t.Fatalf("stranger's entry = %v %v, want the one aggregate accepted after the forward", w, ok)
	}
	a.verts.set(held, 0)
	if !a.replicaHere(held) {
		t.Fatal("under a view of this agent alone, the held target is not served here")
	}
	if _, err := a.router.Update(&wire.View{Epoch: 4, BatchID: 4, N: 64, Agents: []wire.AgentInfo{{ID: 2, Addr: "peer-2"}}}); err != nil {
		t.Fatal(err)
	}
	if a.isReplicaOf(held) {
		t.Fatal("the test wants the router to place the held target elsewhere")
	}
	if a.handleVertexMsgs(vertexMsgPacket(2, wire.VertexMsg{Target: held, Via: 2, Value: 1})) {
		t.Fatal("a target whose record is stamped under the installed view was looked up again")
	}
	a.verts.restamp()
	if !a.handleVertexMsgs(vertexMsgPacket(3, wire.VertexMsg{Target: held, Via: 2, Value: 1})) {
		t.Fatal("after a restamp the target's record was trusted over the router")
	}
}
