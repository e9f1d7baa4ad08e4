package agent

import (
	"strings"
	"sync/atomic"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/transport"
	"elga/internal/wire"
)

// mailBox is the buffer at a that holds step's mail, whichever it is; nil if
// none holds any.
func mailBox(a *Agent, step uint32) *slotMail {
	for k := range a.verts.mail {
		if m := &a.verts.mail[k]; m.step == step && len(m.order) > 0 {
			return m
		}
	}
	return nil
}

// mailAt is v's aggregate in step's mail at a, if v has an entry there.
func mailAt(a *Agent, step uint32, v graph.VertexID) (algorithm.Word, bool) {
	m, i := mailBox(a, step), a.verts.find(v)
	if m == nil || i < 0 || !m.holds(uint32(i)) {
		return 0, false
	}
	return m.agg[i], true
}

// mailLen is how many entries step's mail holds at a.
func mailLen(a *Agent, step uint32) int {
	if m := mailBox(a, step); m != nil {
		return len(m.order)
	}
	return 0
}

// foldOf is the aggregate v's entry yields when step's mail is read: what the
// step's mail holds with what arrived before the run merged in.
func foldOf(a *Agent, step uint32, v graph.VertexID) algorithm.Word {
	a.stepMail(step)
	w, _ := mailAt(a, step, v)
	return w
}

// mergeAt delivers agg for v at step as a peer's batch does.
func mergeAt(a *Agent, step uint32, v graph.VertexID, agg algorithm.Word) {
	a.handleVertexMsgs(vertexMsgPacket(step, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(agg)}))
}

func TestMailFoldRawOnly(t *testing.T) {
	// Aggregates delivered before any run exists wait raw and fold once a
	// program is there to merge them.
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	for _, w := range []algorithm.Word{5, 3, 9} {
		mergeAt(a, 1, 1, w)
	}
	if len(a.prerun) != 3 || mailLen(a, 1) != 0 {
		t.Fatalf("%d aggregates wait raw and %d entries are held, want 3 and 0", len(a.prerun), mailLen(a, 1))
	}
	installRun(a, algorithm.WCC{}, 64)
	if got := foldOf(a, 1, 1); got != 3 {
		t.Errorf("fold = %d, want min 3", got)
	}
	if n := mailLen(a, 1); n != 1 || len(a.prerun) != 0 {
		t.Errorf("entries = %d and %d still raw, want 1 and 0", n, len(a.prerun))
	}
}

func TestMailFoldEagerOnly(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	installRun(a, algorithm.WCC{}, 64)
	mergeAt(a, 1, 1, 2)
	a.gatherLocal(1, []wire.VertexMsg{{Target: 1, Via: 6, Value: 6}})
	if got := foldOf(a, 1, 1); got != 2 {
		t.Errorf("fold = %d", got)
	}
	if a.prerun != nil {
		t.Error("raw list exists with nothing raw delivered")
	}
}

func TestMailFoldMixedEras(t *testing.T) {
	// Raw values buffered pre-run plus an eager aggregate after the run
	// installed must combine.
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	mergeAt(a, 1, 1, 4)
	mergeAt(a, 1, 1, 9)
	installRun(a, algorithm.WCC{}, 64)
	mergeAt(a, 1, 1, 7)
	if got := foldOf(a, 1, 1); got != 4 {
		t.Errorf("fold = %d, want 4", got)
	}
	a.run = nil
	mergeAt(a, 2, 2, algorithm.FromF64(0.25))
	installRun(a, algorithm.PageRank{}, 64)
	a.gatherLocal(2, []wire.VertexMsg{{Target: 2, Via: 6, Value: wire.Word(algorithm.FromF64(0.5))}})
	if got := foldOf(a, 2, 2).F64(); got != 0.75 {
		t.Errorf("pagerank fold = %v, want 0.75", got)
	}
}

func TestMailGetMissing(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	if _, ok := mailAt(a, 1, 1); ok || mailLen(a, 1) != 0 {
		t.Error("an agent that was sent nothing must hold no mail")
	}
	installRun(a, algorithm.WCC{}, 64)
	mergeAt(a, 1, 1, 3)
	if _, ok := mailAt(a, 1, 2); ok {
		t.Error("absent key found")
	}
	if _, ok := mailAt(a, 3, 1); ok {
		t.Error("step 1's entry found in step 3's mail")
	}
}

func TestKeyedVertex(t *testing.T) {
	out := wire.EdgeChange{Src: 1, Dst: 2, Dir: graph.Out}
	if keyedVertex(out) != 1 {
		t.Error("Out copy keys on Src")
	}
	in := wire.EdgeChange{Src: 1, Dst: 2, Dir: graph.In}
	if keyedVertex(in) != 2 {
		t.Error("In copy keys on Dst")
	}
}

func TestAckGroupSemantics(t *testing.T) {
	a := &Agent{reqToGroups: make(map[uint32][]*ackGroup)}
	g1 := &ackGroup{}
	g2 := &ackGroup{}
	g1.pending = 2
	g2.pending = 1
	a.reqToGroups[1] = []*ackGroup{g1}
	a.reqToGroups[2] = []*ackGroup{g1, g2}
	fired1, fired2 := 0, 0
	g1.then(func() { fired1++ })
	g2.then(func() { fired2++ })
	a.onAck(1)
	if g1.pending != 1 || fired1 != 0 || fired2 != 0 {
		t.Fatalf("after first ack: g1=%d fired %d/%d", g1.pending, fired1, fired2)
	}
	a.onAck(2)
	if g1.pending != 0 || g2.pending != 0 {
		t.Fatalf("groups not drained: %d %d", g1.pending, g2.pending)
	}
	if fired1 != 1 || fired2 != 1 {
		t.Fatalf("actions fired %d and %d times, want once each", fired1, fired2)
	}
	// Unknown and repeated acks are no-ops.
	a.onAck(99)
	a.onAck(2)
	if fired1 != 1 || fired2 != 1 || len(a.reqToGroups) != 0 {
		t.Fatalf("a stray ack fired an action (%d, %d) or left %d sends mapped", fired1, fired2, len(a.reqToGroups))
	}
}

// TestVoteWhenDrainedImmediate: a group with nothing outstanding runs its
// action when armed, and a group that drains before it is armed runs it at
// arming, not at the last ack.
func TestVoteWhenDrainedImmediate(t *testing.T) {
	fired := 0
	(&ackGroup{}).then(func() { fired++ })
	if fired != 1 {
		t.Fatalf("empty group fired %d times when armed, want once", fired)
	}
	g := &ackGroup{pending: 1}
	g.acked()
	if fired != 1 {
		t.Fatal("an unarmed group ran an action")
	}
	g.then(func() { fired++ })
	if fired != 2 {
		t.Fatal("a drained group did not run its action when armed")
	}
}

// TestUnroutableMessagesAreCounted: a shard flushed toward an agent the
// installed view has no address for drops that destination's messages —
// there is nowhere to send them — and must say so: the counter rises by
// exactly the number dropped, while messages for self still land.
func TestUnroutableMessagesAreCounted(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	installRun(a, algorithm.PageRank{}, 64)
	withPeer := &wire.View{Epoch: 2, BatchID: 2, N: 64, Agents: []wire.AgentInfo{
		{ID: a.id, Addr: a.ep.Addr()}, {ID: 2, Addr: "peer-2"},
	}}
	if _, err := a.installView(withPeer); err != nil {
		t.Fatal(err)
	}
	self, _ := a.router.MemberIndex(consistent.AgentID(a.id))
	peer, ok := a.router.MemberIndex(2)
	if !ok {
		t.Fatal("agent 2 is not a member")
	}
	s := a.sink()
	msg := wire.VertexMsg{Target: 7, Via: 8, Value: wire.Word(algorithm.FromF64(0.5))}
	for i := 0; i < 5; i++ {
		// Distinct targets: the flush folds by target, and what is dropped
		// and counted is what would have been sent.
		s.add(peer, wire.VertexMsg{Target: graph.VertexID(100 + i), Via: 8, Value: msg.Value})
	}
	s.add(self, msg)
	// Agent 2 leaves the view between the scatter and the flush.
	alone := &wire.View{Epoch: 3, BatchID: 3, N: 64, Agents: withPeer.Agents[:1]}
	if _, err := a.installView(alone); err != nil {
		t.Fatal(err)
	}
	a.flushPhase(s, 4, consistent.AgentID(a.id))
	if got := atomic.LoadUint64(&a.statUnroutable); got != 5 {
		t.Fatalf("unroutable = %d after dropping 5 messages", got)
	}
	if a.phaseGate.pending != 0 {
		t.Fatalf("%d sends pending toward an agent with no address", a.phaseGate.pending)
	}
	if w, ok := mailAt(a, 4, 7); !ok || w != algorithm.FromF64(0.5) {
		t.Fatalf("self-addressed message not delivered: %v %v", w, ok)
	}
	// The next hand-out binds to the shrunken view and drops nothing.
	s = a.sink()
	s.add(0, msg)
	a.flushPhase(s, 5, consistent.AgentID(a.id))
	if got := atomic.LoadUint64(&a.statUnroutable); got != 5 {
		t.Fatalf("unroutable = %d after a routable flush, want 5", got)
	}
}

// TestStartReportsAnInitError: an init error in Boot — here durable
// checkpointing without a key — ends the bootstrap before its first request
// and is Start's error; Start does not wait on a master that does not exist.
func TestStartReportsAnInitError(t *testing.T) {
	_, err := Start(Options{Config: config.Default(), Network: transport.NewInproc(),
		MasterAddr: "no-master", Checkpoint: checkpoint.Config{Enabled: true}})
	if err == nil || !strings.Contains(err.Error(), "without a key") {
		t.Fatalf("Start: %v, want the checkpoint error", err)
	}
}
