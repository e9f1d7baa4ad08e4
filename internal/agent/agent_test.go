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

// foldOf is the aggregate v's entry yields at consumption.
func foldOf(t *aggTable, prog algorithm.Program, v graph.VertexID) algorithm.Word {
	return t.fold(prog, t.get(v))
}

func TestMailFoldRawOnly(t *testing.T) {
	// Aggregates delivered before any run exists buffer raw and fold once a
	// program is there to merge them.
	var tab aggTable
	for _, w := range []algorithm.Word{5, 3, 9} {
		tab.mergeKey(nil, 1, w)
	}
	if got := foldOf(&tab, algorithm.WCC{}, 1); got != 3 {
		t.Errorf("fold = %d, want min 3", got)
	}
	if tab.live != 1 {
		t.Errorf("live = %d, want 1", tab.live)
	}
}

func TestMailFoldEagerOnly(t *testing.T) {
	var tab aggTable
	wcc := algorithm.WCC{}
	tab.mergeKey(wcc, 1, 2)
	tab.gather(wcc, 1, 6)
	if got := foldOf(&tab, wcc, 1); got != 2 {
		t.Errorf("fold = %d", got)
	}
	if tab.raw != nil {
		t.Error("raw buffer exists with nothing raw delivered")
	}
}

func TestMailFoldMixedEras(t *testing.T) {
	// Raw values buffered pre-run plus an eager aggregate after the run
	// installed must combine.
	var tab aggTable
	wcc := algorithm.WCC{}
	tab.mergeKey(nil, 1, 4)
	tab.mergeKey(nil, 1, 9)
	tab.mergeKey(wcc, 1, 7)
	if got := foldOf(&tab, wcc, 1); got != 4 {
		t.Errorf("fold = %d, want 4", got)
	}
	pr := algorithm.PageRank{}
	tab.reset()
	tab.mergeKey(nil, 2, algorithm.FromF64(0.25))
	tab.gather(pr, 2, algorithm.FromF64(0.5))
	if got := foldOf(&tab, pr, 2).F64(); got != 0.75 {
		t.Errorf("pagerank fold = %v, want 0.75", got)
	}
}

func TestMailGetMissing(t *testing.T) {
	var tab aggTable
	if tab.get(1) != nil || (*aggTable)(nil).get(1) != nil {
		t.Error("empty and nil tables must hold nothing")
	}
	tab.mergeKey(algorithm.WCC{}, 1, 3)
	if tab.get(2) != nil {
		t.Error("absent key found")
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

// TestUnroutableMessagesAreCounted: shards merged toward an agent the
// installed view has no address for drop that destination's messages —
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
	shards := a.getShards(2)
	msg := wire.VertexMsg{Target: 7, Via: 8, Value: wire.Word(algorithm.FromF64(0.5))}
	for i := 0; i < 5; i++ {
		// Distinct targets: the merge folds by target, and what is dropped
		// and counted is what would have been sent.
		shards[i%2].add(peer, wire.VertexMsg{Target: graph.VertexID(100 + i), Via: 8, Value: msg.Value})
	}
	shards[1].add(self, msg)
	// Agent 2 leaves the view between the scatter and the merge.
	alone := &wire.View{Epoch: 3, BatchID: 3, N: 64, Agents: withPeer.Agents[:1]}
	if _, err := a.installView(alone); err != nil {
		t.Fatal(err)
	}
	a.mergeShards(shards, 4, consistent.AgentID(a.id))
	if got := atomic.LoadUint64(&a.statUnroutable); got != 5 {
		t.Fatalf("unroutable = %d after dropping 5 messages", got)
	}
	if a.phaseGate.pending != 0 {
		t.Fatalf("%d sends pending toward an agent with no address", a.phaseGate.pending)
	}
	if e := a.mailbox[4].get(7); e == nil || e.agg != algorithm.FromF64(0.5) {
		t.Fatalf("self-addressed message not delivered: %+v", e)
	}
	// The next hand-out binds to the shrunken view and drops nothing.
	shards = a.getShards(2)
	shards[0].add(0, msg)
	a.mergeShards(shards, 5, consistent.AgentID(a.id))
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
