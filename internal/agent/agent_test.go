package agent

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
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
	a.phaseGate = g1
	g1.pending = 2
	g2.pending = 1
	a.reqToGroups[1] = []*ackGroup{g1}
	a.reqToGroups[2] = []*ackGroup{g1, g2}
	fired := 0
	a.pendingVotes = append(a.pendingVotes, pendingVote{gate: g2, fire: func() { fired++ }})
	a.onAck(1)
	if g1.pending != 1 || fired != 0 {
		t.Fatalf("after first ack: g1=%d fired=%d", g1.pending, fired)
	}
	a.onAck(2)
	if g1.pending != 0 || g2.pending != 0 {
		t.Fatalf("groups not drained: %d %d", g1.pending, g2.pending)
	}
	if fired != 1 {
		t.Fatalf("pending vote fired %d times", fired)
	}
	// Unknown ack is a no-op.
	a.onAck(99)
	if len(a.pendingVotes) != 0 {
		t.Error("vote list not cleared")
	}
}

func TestVoteWhenDrainedImmediate(t *testing.T) {
	a := &Agent{reqToGroups: make(map[uint32][]*ackGroup)}
	fired := false
	a.voteWhenDrained(&ackGroup{}, func() { fired = true })
	if !fired {
		t.Error("empty gate should fire immediately")
	}
}

// TestUnroutableMessagesAreCounted: a batcher flushed toward an agent the
// installed view has no address for drops that destination's messages —
// there is nowhere to send them — and must say so: the counter rises by
// exactly the number dropped, while messages for self still land.
func TestUnroutableMessagesAreCounted(t *testing.T) {
	a := newLoopbackAgent(t, allocTestConfig(), 64)
	installRun(a, algorithm.PageRank{}, 64)
	withPeer := &wire.View{Epoch: 2, BatchID: 2, N: 64, Agents: []wire.AgentInfo{
		{ID: a.id, Addr: a.ep.Addr()}, {ID: 2, Addr: "peer-2"},
	}}
	if _, err := a.router.Update(withPeer); err != nil {
		t.Fatal(err)
	}
	self, _ := a.router.MemberIndex(consistent.AgentID(a.id))
	peer, ok := a.router.MemberIndex(2)
	if !ok {
		t.Fatal("agent 2 is not a member")
	}
	b := a.getBatcher(4)
	msg := wire.VertexMsg{Target: 7, Via: 8, Value: wire.Word(algorithm.FromF64(0.5))}
	for i := 0; i < 5; i++ {
		// Distinct targets: the flush folds by target, and what is dropped
		// and counted is what would have been sent.
		b.add(peer, wire.VertexMsg{Target: graph.VertexID(100 + i), Via: 8, Value: msg.Value})
	}
	b.add(self, msg)
	// Agent 2 leaves the view between the scatter and the flush.
	alone := &wire.View{Epoch: 3, BatchID: 3, N: 64, Agents: withPeer.Agents[:1]}
	if _, err := a.router.Update(alone); err != nil {
		t.Fatal(err)
	}
	b.flush(a.phaseGate)
	a.putBatcher(b)
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
	b = a.getBatcher(5)
	b.add(0, msg)
	b.flush(a.phaseGate)
	a.putBatcher(b)
	if got := atomic.LoadUint64(&a.statUnroutable); got != 5 {
		t.Fatalf("unroutable = %d after a routable flush, want 5", got)
	}
}

// TestReportGivesAFullProfileChunkAFrameOfItsOwn: a report holds what is
// pending, but a 256 KiB profile chunk never shares a frame — a 600 KiB
// capture behind a staged sample ships as the sample's report and then one
// report per chunk, whose bytes reassemble to the capture.
func TestReportGivesAFullProfileChunkAFrameOfItsOwn(t *testing.T) {
	a, rec := newRecordedAgent(t, allocTestConfig(), 1)
	a.coordAddr = "coord"
	capture := make([]byte, 600<<10)
	for i := range capture {
		capture[i] = byte(i)
	}
	a.samples = append(a.samples, wire.Metric{Name: "inbox_depth", Value: 2})
	a.pushProfResult(profResult{id: 7, kind: 1, data: capture})
	a.shipReport()
	var got [][]uint8
	var data []byte
	for _, pkt := range rec.log("coord").pkts {
		var kinds []uint8
		err := wire.WalkReport(pkt.Payload, func(agentID uint64, kind uint8, body []byte) {
			kinds = append(kinds, kind)
			if kind == wire.SecProfileChunk {
				ck, err := wire.DecodeProfileChunk(body)
				if err != nil || ck.Total != 3 || int(ck.Seq) != len(got)-1 {
					t.Errorf("frame %d: chunk %+v, err %v", len(got), ck, err)
					return
				}
				data = append(data, ck.Data...)
			}
		})
		if pkt.Type != wire.TReport || err != nil {
			t.Fatalf("frame %d: %s, err %v", len(got), pkt.Type, err)
		}
		got = append(got, kinds)
	}
	want := [][]uint8{{wire.SecMetrics}, {wire.SecProfileChunk}, {wire.SecProfileChunk}, {wire.SecProfileChunk}}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(data, capture) {
		t.Fatalf("frames hold sections %v (want %v), %d of %d capture bytes back", got, want, len(data), len(capture))
	}
}
