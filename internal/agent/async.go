package agent

import (
	"elga/internal/algorithm"
	"elga/internal/graph"
	"elga/internal/wire"
)

// Asynchronous execution (paper §2.1, §3.2): vertices are processed the
// moment their messages arrive — no supersteps, no barriers. Supported
// for monotone quiescence-halting programs (WCC, BFS, SSSP), whose
// Gather/Update form a join-semilattice: processing order cannot change
// the fixpoint. Split vertices converge through replica gossip — an
// improved value is re-sent to the other replicas as an ordinary message,
// so every replica's out-copies eventually carry the best value.
//
// Termination uses double-probe quiescence detection: the coordinator
// periodically asks every agent for its cumulative sent/received message
// counters; when all agents are idle, the global sums match, and nothing
// changed since the previous probe, no message can be in flight and the
// run is complete.

// startAsync seeds an asynchronous run: initialize (or adopt) state and
// announce the seeds (announceSeeds, shared with a synchronous incremental
// run's step 0).
func (a *Agent) startAsync() {
	r := a.run
	r.started = true
	r.ctx.N = a.router.N()
	// Async has no supersteps; pin Step past 0 so programs' step-0
	// "announce even without improvement" rule cannot fire on every
	// received message (which would re-scatter forever). Seeds announce
	// their values explicitly below instead.
	r.ctx.Step = 1
	if r.spec.FromScratch {
		a.initStates()
	}
	s, self := a.bindAsync()
	a.announceSeeds(s, func(v graph.VertexID, mv algorithm.Word) { a.asyncScatter(s, v, mv, self) })
	a.flushAsync(s, self)
}

// handleAsyncMsgs processes an asynchronous message batch immediately,
// message by message (asyncMsg), counting receipts for the quiescence
// protocol.
func (a *Agent) handleAsyncMsgs(batch *wire.VertexMsgBatch) {
	r := a.run
	if r == nil || !r.spec.Async {
		// Stale async traffic after a run ended; drop. Quiescence
		// counting already closed before TAlgoDone, so this only
		// happens for traffic from a previous run's tail.
		return
	}
	s, self := a.bindAsync()
	for _, m := range batch.Msgs {
		a.asyncMsg(s, m, self)
	}
	a.flushAsync(s, self)
}

// bindAsync readies an async handler: the routed adjacency in line with the
// view and the store, and the shard it scatters into (sink). It returns
// the shard and this agent's member index, -1 when the view lacks it.
func (a *Agent) bindAsync() (*computeShard, int) {
	a.syncPlan()
	return a.sink(), a.selfIndex()
}

// asyncMsg is the async engine's one per-message body, for a received
// message and a self-addressed one alike: gather → update → scatter into s.
// A message for a vertex this agent holds no replica of — the sender routed
// under an older view — is forwarded, unprocessed, to the best-known
// destination.
func (a *Agent) asyncMsg(s *computeShard, m wire.VertexMsg, self int) {
	r, v := a.run, m.Target
	r.asyncReceived++
	if !a.isReplicaOf(v) {
		if dst, ok := a.router.EdgeOwnerIndex(v, m.Via); ok && dst != self {
			s.add(dst, m)
			return
		}
	}
	old := a.valueOf(v)
	agg := r.prog.Gather(r.prog.ZeroAgg(), algorithm.Word(m.Value))
	nw, act := r.prog.Update(v, old, agg, true, &r.ctx)
	if nw == old && !act {
		return
	}
	a.verts.set(v, nw)
	if act {
		a.asyncScatter(s, v, a.messageValue(v, nw), self)
	}
}

// asyncScatter scatters v's message value into s as a superstep does
// (scatter) and, for a split vertex, gossips its new state to the other
// replicas: monotone programs converge replica state by re-delivering the
// improved value as an ordinary message.
func (a *Agent) asyncScatter(s *computeShard, v graph.VertexID, mv algorithm.Word, self int) {
	a.scatter(s, v, mv)
	if a.router.Split(v) {
		state, _ := a.verts.get(v)
		for _, rep := range a.router.ReplicaSet(v) {
			if at, ok := a.router.MemberIndex(rep); ok && at != self {
				s.add(at, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(state)})
			}
		}
	}
}

// flushAsync ends an async handler. The messages its scatters addressed to
// this agent form a queue, processed in order by asyncMsg, which may append
// more; each counts as one sent and one received, so the global sums
// balance. Then every peer's messages leave in one acked frame, which feeds
// no gate: the protocol resends a lost one and drops a duplicate, so each
// message is received once and the sums balance again.
// s is left empty.
func (a *Agent) flushAsync(s *computeShard, self int) {
	r := a.run
	if self >= 0 {
		for k := 0; k < len(s.bufs[self]); k++ {
			r.asyncSent++
			a.asyncMsg(s, s.bufs[self][k], self)
		}
	}
	for i, msgs := range s.bufs {
		if len(msgs) == 0 || i == self {
			continue
		}
		addr, ok := a.router.AddrOf(s.members[i])
		if !ok {
			continue
		}
		r.asyncSent += uint64(len(msgs))
		_, _ = a.ep.SendFrameAcked(addr, wire.AppendVertexMsgBatch(
			a.ep.NewFrameHint(wire.TVertexMsgs, 16+24*len(msgs)),
			&wire.VertexMsgBatch{Async: true, Msgs: msgs}))
	}
	s.reset()
}

// handleAsyncProbe answers a quiescence probe with the current counters, as
// an acked vote: a lost one would hold the probe round open for ever. The
// event loop processes messages to completion before reaching the probe, so
// the agent is by construction idle at this instant.
func (a *Agent) handleAsyncProbe(adv *wire.Advance) {
	r := a.run
	if r == nil || !r.spec.Async || adv.RunID != r.id {
		return
	}
	a.sendReady(wire.Ready{
		Step:     adv.Step,
		Phase:    wire.PhaseAsyncProbe,
		Sent:     r.asyncSent,
		Received: r.asyncReceived,
	})
}
