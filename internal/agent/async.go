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
	b := a.getAsyncBatcher()
	a.announceSeeds(b, func(v graph.VertexID, mv algorithm.Word) { a.asyncScatter(b, v, mv) })
	b.flush()
	a.putAsyncBatcher(b)
}

// handleAsyncMsgs processes an asynchronous message batch immediately:
// gather → update → scatter per message, counting receipts for the
// quiescence protocol.
func (a *Agent) handleAsyncMsgs(batch *wire.VertexMsgBatch) {
	r := a.run
	if r == nil || !r.spec.Async {
		// Stale async traffic after a run ended; drop. Quiescence
		// counting already closed before TAlgoDone, so this only
		// happens for traffic from a previous run's tail.
		return
	}
	b := a.getAsyncBatcher()
	for _, m := range batch.Msgs {
		v := graph.VertexID(m.Target)
		r.asyncReceived++
		if !a.isReplicaOf(v) {
			// Stale routing: forward, unprocessed, to the best-known
			// destination.
			if dst, ok := a.router.EdgeOwnerIndex(v, graph.VertexID(m.Via)); ok && dst != b.self {
				b.dstBufs.add(dst, m)
				continue
			}
		}
		old := a.valueOf(v)
		agg := r.prog.Gather(r.prog.ZeroAgg(), algorithm.Word(m.Value))
		nw, act := r.prog.Update(v, old, agg, true, &r.ctx)
		if nw == old && !act {
			continue
		}
		a.verts.set(v, nw)
		if act {
			mv := a.messageValue(v, nw)
			a.asyncScatter(b, v, mv)
		}
	}
	b.flush()
	a.putAsyncBatcher(b)
}

// asyncScatter sends v's message value along its local edges and, for
// split vertices, gossips the new state to the other replicas.
func (a *Agent) asyncScatter(b *asyncBatcher, v graph.VertexID, mv algorithm.Word) {
	r := a.run
	if r.prog.SendsOut() {
		for it := a.store.OutCursor(v); ; {
			w, ok := it.Next()
			if !ok {
				break
			}
			val := mv
			if r.adjust != nil {
				val = r.adjust.AdjustPerEdge(v, w, val)
			}
			if dst, ok := a.router.EdgeOwnerIndex(w, v); ok {
				b.add(dst, wire.VertexMsg{Target: w, Via: v, Value: wire.Word(val)})
			}
		}
	}
	if r.prog.SendsIn() {
		for it := a.store.InCursor(v); ; {
			u, ok := it.Next()
			if !ok {
				break
			}
			val := mv
			if r.adjust != nil {
				val = r.adjust.AdjustPerEdge(u, v, val)
			}
			if dst, ok := a.router.EdgeOwnerIndex(u, v); ok {
				b.add(dst, wire.VertexMsg{Target: u, Via: v, Value: wire.Word(val)})
			}
		}
	}
	// Replica gossip: monotone programs converge replica state by
	// re-delivering the improved value as an ordinary message.
	if a.router.Split(v) {
		state, _ := a.verts.get(v)
		for _, rep := range a.router.ReplicaSet(v) {
			if at, ok := a.router.MemberIndex(rep); ok && at != b.self {
				b.add(at, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(state)})
			}
		}
	}
}

// asyncBatcher groups outgoing async messages per destination in the
// buffers the synchronous sinks use, indexed by member position. Unlike the
// synchronous batcher, sends are unacknowledged: the sent/received counters
// provide the termination guarantee instead.
type asyncBatcher struct {
	agent *Agent
	self  int // this agent's member index; -1 when the view lacks it
	dstBufs
}

// getAsyncBatcher pops a batcher off the agent's free list and binds it to
// the installed view. A free list (rather than one scratch instance) is
// required because processAsyncLocal nests batchers: a local delivery
// mid-flush opens a fresh one.
func (a *Agent) getAsyncBatcher() *asyncBatcher {
	var b *asyncBatcher
	if n := len(a.asyncFree); n > 0 {
		b = a.asyncFree[n-1]
		a.asyncFree = a.asyncFree[:n-1]
	} else {
		b = &asyncBatcher{agent: a}
	}
	b.bind(a.router.Agents())
	b.self = a.selfIndex()
	return b
}

func (a *Agent) putAsyncBatcher(b *asyncBatcher) {
	a.asyncFree = append(a.asyncFree, b)
}

func (b *asyncBatcher) add(dst int, m wire.VertexMsg) {
	if dst == b.self {
		// Local delivery is processed inline; it still counts as one
		// sent and one received message so the global sums balance.
		b.agent.run.asyncSent++
		b.agent.processAsyncLocal(m)
		return
	}
	b.dstBufs.add(dst, m)
}

// processAsyncLocal handles one self-addressed message inline, which may
// recursively enqueue into the active batcher via a fresh one.
func (a *Agent) processAsyncLocal(m wire.VertexMsg) {
	r := a.run
	v := graph.VertexID(m.Target)
	r.asyncReceived++
	old := a.valueOf(v)
	agg := r.prog.Gather(r.prog.ZeroAgg(), algorithm.Word(m.Value))
	nw, act := r.prog.Update(v, old, agg, true, &r.ctx)
	if nw == old && !act {
		return
	}
	a.verts.set(v, nw)
	if act {
		b := a.getAsyncBatcher()
		mv := a.messageValue(v, nw)
		a.asyncScatter(b, v, mv)
		b.flush()
		a.putAsyncBatcher(b)
	}
}

func (b *asyncBatcher) flush() {
	a := b.agent
	for i, msgs := range b.bufs {
		if len(msgs) == 0 {
			continue
		}
		// Entries reset in place: the encoder copied msgs into the frame,
		// so the backing array is immediately reusable.
		b.empty(i)
		addr, ok := a.router.AddrOf(b.members[i])
		if !ok {
			continue
		}
		a.run.asyncSent += uint64(len(msgs))
		_ = a.ep.SendFrame(addr, wire.AppendVertexMsgBatch(
			a.ep.NewFrameHint(wire.TVertexMsgs, 16+24*len(msgs)),
			&wire.VertexMsgBatch{Async: true, Msgs: msgs}))
	}
}

// handleAsyncProbe answers a quiescence probe with the current counters.
// The event loop processes messages to completion before reaching the
// probe, so the agent is by construction idle at this instant.
func (a *Agent) handleAsyncProbe(adv *wire.Advance) {
	r := a.run
	if r == nil || !r.spec.Async || adv.RunID != r.id {
		return
	}
	_ = a.ep.SendFrame(a.coordAddr, wire.AppendReady(a.ep.NewFrame(wire.TReady), &wire.Ready{
		AgentID:  a.id,
		Step:     adv.Step,
		Phase:    wire.PhaseAsyncProbe,
		Sent:     r.asyncSent,
		Received: r.asyncReceived,
		Idle:     true,
	}))
}
