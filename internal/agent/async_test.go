package agent

import (
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// TestAsyncStaleMessagesForwardUnprocessed: an asynchronous batch that
// reaches an agent holding none of its targets' copies — the sender routed
// under an older view — goes on, value unchanged, to the member the router
// names; a message this agent serves is processed here and not sent on. Both
// count as received, the forwards also as sent, so the quiescence sums
// balance.
func TestAsyncStaleMessagesForwardUnprocessed(t *testing.T) {
	a, rec := newRecordedAgent(t, config.Default(), 0)
	view := &wire.View{Epoch: 2, BatchID: 2, Agents: []wire.AgentInfo{
		{ID: a.id, Addr: a.ep.Addr()}, {ID: 2, Addr: "peer-2"},
	}}
	if _, err := a.installView(view); err != nil {
		t.Fatal(err)
	}
	installRun(a, algorithm.WCC{}, 0)
	a.run.spec.Async = true
	a.run.ctx.Step = 1 // as startAsync pins it

	var stale []wire.VertexMsg
	var own graph.VertexID
	for v := graph.VertexID(1); len(stale) < 3 || own == 0; v++ {
		if o, _ := a.router.EdgeOwner(v, v); o == consistent.AgentID(a.id) {
			own = v
		} else if len(stale) < 3 {
			stale = append(stale, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(1000 + v)})
		}
	}
	batch := &wire.VertexMsgBatch{Async: true, Msgs: append(append([]wire.VertexMsg(nil), stale...),
		wire.VertexMsg{Target: own, Via: own, Value: 0})}
	a.handleAsyncMsgs(batch)

	if got := rec.log("peer-2").async; !slices.Equal(got, stale) {
		t.Fatalf("peer received %+v, want the stale %+v unchanged", got, stale)
	}
	for _, m := range stale {
		if _, ok := a.verts.get(m.Target); ok {
			t.Errorf("stale target %d was processed here", m.Target)
		}
	}
	if w, ok := a.verts.get(own); !ok || w != 0 {
		t.Errorf("own target %d holds %v (set %v), want label 0", own, w, ok)
	}
	if r := a.run; r.asyncReceived != uint64(len(batch.Msgs)) || r.asyncSent != uint64(len(stale)) {
		t.Errorf("received %d, sent %d; want %d and %d", r.asyncReceived, r.asyncSent, len(batch.Msgs), len(stale))
	}
}
