package agent

import (
	"slices"
	"sync/atomic"
	"time"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/trace"
	"elga/internal/wire"
)

// handleAlgoStart installs a new run context. Duplicate announcements for
// the current run (re-broadcast after a mid-run elastic event) are
// ignored.
func (a *Agent) handleAlgoStart(pkt *wire.Packet) {
	spec, err := wire.DecodeAlgoStart(pkt.Payload)
	if err != nil {
		return
	}
	if a.run != nil && a.run.id == spec.RunID {
		return
	}
	prog, err := algorithm.New(spec.Algo)
	if err != nil {
		return
	}
	r := &runCtx{
		id: spec.RunID, spec: spec, prog: prog,
		ctx: algorithm.Context{Source: spec.Source},
	}
	if adj, ok := prog.(algorithm.PerEdgeAdjuster); ok {
		r.adjust = adj
	}
	if spec.Resume {
		// A re-broadcast for an agent that joined mid-run: adopt the
		// run without disturbing migrated state or activity.
		if a.run == nil {
			r.started = true
			a.verts.begin(setActive)
			a.run = r
			a.replayDeferred()
			a.replayParkedAdvance()
		}
		return
	}
	defer a.replayDeferred()
	// The active set is the run's: the one before left nothing in it.
	a.verts.begin(setActive)
	if spec.FromScratch {
		// Discard any stale activity marks; initialization happens at
		// Advance(step 0) when the global vertex count is known.
		a.store.TakeActive()
		a.verts.drop(recValue)
	}
	// An incremental run (§4.3) keeps its state; the store's active set and
	// fresh log seed its first step (announceSeeds).
	a.run = r
	if spec.Async {
		a.startAsync()
	}
	a.replayParkedAdvance()
}

// replayParkedAdvance re-drives an Advance that outran its TAlgoStart.
func (a *Agent) replayParkedAdvance() {
	adv := a.pendingAdv
	if adv == nil || a.run == nil || adv.RunID != a.run.id {
		return
	}
	a.pendingAdv = nil
	tctx := a.pendingAdvCtx
	a.pendingAdvCtx = trace.SpanContext{}
	a.handleAdvance(adv, tctx)
}

// handleAlgoDone tears down the run and applies changes buffered while the
// batch computation was executing ("once the batch is over, these updates
// can be processed", §3.4). Acked-send retransmission does not preserve
// cross-frame order, so a dropped TAlgoDone can be redelivered after the
// NEXT run's TAlgoStart — the RunID guard keeps that straggler from
// tearing down the new run.
func (a *Agent) handleAlgoDone(pkt *wire.Packet) {
	done, err := wire.DecodeAlgoDone(pkt.Payload)
	if err != nil || a.run == nil || done.RunID != a.run.id {
		return
	}
	// Retransmission can reorder TAlgoDone ahead of the halting Advance;
	// close any phase/barrier span still open so neither outlives the run.
	a.phaseSpan.End()
	a.phaseSpan = trace.ActiveSpan{}
	a.barrierSpan.End()
	a.barrierSpan = trace.ActiveSpan{}
	a.run = nil
	a.pendingAdv = nil
	// Drop per-run message state; the two step-indexed maps themselves are
	// kept, and the mailbox tables go back to the free list.
	for _, t := range a.mailbox {
		a.recycleMail(t)
	}
	clear(a.mailbox)
	clear(a.partials)
	a.flushBuffered(&ackGroup{})
}

// handleAdvance drives a phase transition. tctx is the distributed trace
// context the Advance frame carried (zero when tracing is off): the
// coordinator's step span, under which this agent's phase and
// barrier-wait spans link.
func (a *Agent) handleAdvance(adv *wire.Advance, tctx trace.SpanContext) {
	if adv.Phase == wire.PhaseMigrate {
		// Migration-complete broadcast: leavers may exit once drained.
		// When the whole membership left at once there is no destination
		// for the data — the cluster is shutting down, so exit anyway.
		if adv.Halt && a.leaving &&
			(a.store.NumEdgeCopies() == 0 || a.router.NumAgents() == 0) {
			a.readyToExit = true
		}
		if adv.Halt {
			for _, addr := range a.departed {
				if !a.peers[addr] { // not back under a new identity
					a.retirePeer(addr)
				}
			}
			a.departed = a.departed[:0]
		}
		return
	}
	r := a.run
	if r == nil || adv.RunID != r.id {
		// The run this Advance drives hasn't been announced here yet: a
		// dropped TAlgoStart can be redelivered after the step-0 Advance
		// (retransmission reorders frames). Discarding would wedge the
		// barrier — the coordinator never re-sends an Advance — so park
		// it for handleAlgoStart to replay. Halting Advances of finished
		// runs need no replay.
		if !adv.Halt && adv.RunID != 0 && (r == nil || adv.RunID > r.id) {
			a.pendingAdv = adv
			a.pendingAdvCtx = tctx
		}
		return
	}
	if adv.Halt {
		// The directory closes runs with a halting Advance followed by
		// TAlgoDone; state is retained there. The barrier-wait span from
		// the final vote ends on this boundary — otherwise it would
		// dangle into the next run and record the inter-run gap.
		a.barrierSpan.End()
		a.barrierSpan = trace.ActiveSpan{}
		return
	}
	if adv.Phase == wire.PhaseAsyncProbe {
		a.handleAsyncProbe(adv)
		return
	}
	r.ctx.N = adv.N
	r.step = adv.Step
	r.ctx.Step = adv.Step
	r.phase = adv.Phase
	r.doneLocal = false
	r.readySent = false
	r.phaseStart = time.Now()
	// The gap between our vote and this Advance is barrier idle time —
	// the straggler signal the phase histograms can't show. The
	// barrier-wait span opened at the vote closes on the same boundary.
	if !r.votedAt.IsZero() {
		a.m.barrierWait.Observe(r.phaseStart.Sub(r.votedAt).Seconds())
		r.votedAt = time.Time{}
	}
	a.barrierSpan.End()
	a.barrierSpan = trace.ActiveSpan{}
	if adv.Phase == wire.PhaseCompute {
		r.splitWork = false
	}
	// Fresh gate per phase; prior gates are drained (votes fire only
	// when empty) so nothing is lost.
	a.phaseGate = &ackGroup{}
	phaseName := "compute"
	if adv.Phase == wire.PhaseCombine {
		phaseName = "combine"
	}
	// The distributed phase span links under the coordinator's step span
	// (tctx rode the Advance frame) and runs until the barrier vote in
	// maybeReady — which may fire here or later, once the gate drains.
	a.phaseSpan.End() // close any dangling span from an interrupted phase
	a.phaseSpan = a.tracer.StartRemote(phaseName, tctx)
	switch adv.Phase {
	case wire.PhaseCompute:
		a.processCompute()
	case wire.PhaseCombine:
		a.processCombine()
	}
}

// processCompute is superstep phase 1: gather mailboxes, update and
// scatter non-split vertices, and ship split-vertex partials to masters.
func (a *Agent) processCompute() {
	// Injected compute-phase latency (SetComputeDelay) stalls this agent's
	// barrier vote by holding the phase gate open for the delay while the
	// event loop keeps draining the inbox — like a real straggler whose
	// compute workers are pegged while its transport thread still acks.
	// Sleeping on the loop instead would block acking the peers' gated
	// scatter sends, delaying every agent's vote by the same amount and
	// erasing the skew from the per-agent step-time metrics. One atomic
	// load per phase when unused.
	if d := a.stepDelay.Load(); d != 0 {
		a.holdVote(time.Duration(d))
	}
	a.syncPlan()
	r := a.run
	if r.step == 0 && !r.started {
		r.started = true
		if !r.spec.FromScratch {
			a.seedStep()
			return
		}
		a.initStates()
	}
	r.started = true

	mail := a.mailbox[r.step]
	delete(a.mailbox, r.step)

	// Work list: active vertices plus everything with mail, plus any
	// activity that arrived through migration (st.Active marks), each probed
	// once; workers get the slots. Always-active programs (PageRank) must
	// also feed split-vertex partials every step so masters can rebuild total
	// out-degrees.
	t := &a.verts
	t.begin(setWork)
	for _, i := range t.list[setActive] {
		if t.in(setActive, i) {
			t.mark(setWork, i)
		}
	}
	mail.each(func(s *aggSlot) { t.mark(setWork, t.at(s.key)) })
	for _, v := range a.store.TakeActive() {
		t.mark(setWork, t.at(v))
	}
	if !r.prog.HaltOnQuiescence() {
		for _, v := range a.localSplits() {
			t.mark(setWork, t.at(v))
		}
	}
	t.begin(setActive)
	work := t.list[setWork]

	batches := a.getBatcher(r.step + 1)
	self := consistent.AgentID(a.id)
	shards := a.runSharded(len(work), func(s *computeShard, i int) {
		a.computeVertex(s, work[i], mail, self)
	})
	a.mergeShards(shards, batches, self)
	batches.flush(a.phaseGate)
	a.putBatcher(batches)
	a.recycleMail(mail)
	r.doneLocal = true
	a.maybeReady()
}

// seedStep is step 0 of an incremental run: the seeds announce and nothing
// else runs, no vertex having mail yet. What they send counts as activity,
// so the directory does not halt the run before step 1 reads it.
func (a *Agent) seedStep() {
	r := a.run
	b := a.getBatcher(1)
	r.activeNext += a.announceSeeds(b, func(v graph.VertexID, mv algorithm.Word) { a.scatter(b, v, mv) })
	b.flush(a.phaseGate)
	a.putBatcher(b)
	r.doneLocal = true
	a.maybeReady()
}

// announceSeeds opens an incremental run, in either engine, and every
// asynchronous one: each seed sends its current value to its neighbours
// without waiting for an improvement. While the store's fresh log is
// intact, a seed announces only along the copies inserted since the
// previous run that the store still holds, so a vertex touched only by
// deletes sends nothing: a converged run of a quiescence-halting
// min-program has already sent every unchanged value along every old edge,
// and only a new copy carries news. A split vertex announces from each
// replica holding such a copy, with that replica's state. Once the log is
// lost — and on a from-scratch run, whose seeds are the initially active
// vertices — every seed announces along all its edges through scatterAll,
// the engine's own scatter. It returns how many announcements it made: a
// copy each on the logged path, a vertex each otherwise.
func (a *Agent) announceSeeds(b msgSink, scatterAll func(v graph.VertexID, mv algorithm.Word)) (announced uint64) {
	r, t := a.run, &a.verts
	fresh, logged := a.store.TakeFresh()
	if logged && !r.spec.FromScratch {
		a.store.TakeActive() // the log names every seed
		for _, c := range fresh {
			if !a.store.HasCopy(c) {
				continue
			}
			// Every seed holding a fresh copy gets a value, sending or not.
			v, w := c.Key(), c.Nbr()
			val := a.valueOf(v)
			if c.Dir == graph.Out && !r.prog.SendsOut() || c.Dir == graph.In && !r.prog.SendsIn() {
				continue
			}
			mv := r.prog.MessageValue(v, val, uint64(a.store.OutDegree(v)), &r.ctx)
			if r.adjust != nil {
				mv = adjustEdge(r.adjust, v, w, mv, c.Dir)
			}
			if dst, ok := a.router.EdgeOwnerIndex(w, v); ok {
				b.add(dst, wire.VertexMsg{Target: w, Via: v, Value: wire.Word(mv)})
				announced++
			}
		}
		return announced
	}
	// The seeds are copied out: announcing one may move the table's records.
	seeds := make([]graph.VertexID, 0, len(t.list[setActive]))
	for _, i := range t.list[setActive] {
		seeds = append(seeds, t.slots[i].key)
	}
	t.begin(setActive)
	seeds = append(seeds, a.store.TakeActive()...)
	for _, v := range seeds {
		scatterAll(v, r.prog.MessageValue(v, a.valueOf(v), uint64(a.store.OutDegree(v)), &r.ctx))
	}
	return uint64(len(seeds))
}

// initStates starts a from-scratch run: every present vertex gets its initial
// state and the initially active ones make up the active set — in vertex
// order, not the store's map order, so that the work lists that follow are a
// function of the run's input.
func (a *Agent) initStates() {
	r, t := a.run, &a.verts
	vs := make([]graph.VertexID, 0, a.store.NumVertices())
	a.store.Vertices(func(v graph.VertexID) bool {
		vs = append(vs, v)
		return true
	})
	slices.Sort(vs)
	for _, v := range vs {
		i := t.at(v)
		t.setAt(i, r.prog.Init(v, &r.ctx))
		if r.prog.InitActive(v, &r.ctx) {
			t.mark(setActive, i)
		}
	}
}

// localSplits returns the locally present split vertices, in vertex order,
// without walking the store every superstep: the list stands while the run,
// the view epoch and the store's vertex count do. Stream batches wait for
// the run to end and a migration round opens an epoch; what arrives inside
// one (a round's late copies, a pin) adds to the count.
func (a *Agent) localSplits() []graph.VertexID {
	s := &a.splits
	if run, epoch, n := a.run.id, a.router.Epoch(), a.store.NumVertices(); s.run != run || s.epoch != epoch || s.n != n {
		s.run, s.epoch, s.n = run, epoch, n
		s.list = s.list[:0]
		a.store.Vertices(func(v graph.VertexID) bool {
			if a.router.Split(v) {
				s.list = append(s.list, v)
			}
			return true
		})
		slices.Sort(s.list)
	}
	return s.list
}

// processCombine is superstep phase 2: masters fold replica partials,
// update split-vertex state, scatter locally, and broadcast value
// updates. The per-vertex work (combineVertex) shards across the same
// worker pool as the compute phase; all sends happen at merge.
func (a *Agent) processCombine() {
	a.syncPlan()
	r := a.run
	parts := a.partials[r.step]
	delete(a.partials, r.step)
	self := consistent.AgentID(a.id)
	// The work list, in vertex order rather than the partial map's.
	a.combineKeys = a.combineKeys[:0]
	for v := range parts {
		a.combineKeys = append(a.combineKeys, v)
	}
	slices.Sort(a.combineKeys)
	t := &a.verts
	t.begin(setWork)
	a.combineVals = a.combineVals[:0]
	for _, v := range a.combineKeys {
		t.mark(setWork, t.at(v))
		a.combineVals = append(a.combineVals, parts[v])
	}
	work := t.list[setWork]
	if parts != nil {
		clear(parts)
		a.partialFree = append(a.partialFree, parts)
	}
	batches := a.getBatcher(r.step + 1)
	shards := a.runSharded(len(work), func(s *computeShard, i int) {
		a.combineVertex(s, work[i], &a.combineVals[i], self)
	})
	a.mergeShards(shards, batches, self)
	batches.flush(a.phaseGate)
	a.putBatcher(batches)
	r.doneLocal = true
	a.maybeReady()
}

// stashPartial folds one replica partial into its step's entry for v, taking
// the step's map off the free list if this is its first.
func (a *Agent) stashPartial(step uint32, v graph.VertexID, agg algorithm.Word, have bool, outDeg uint64) {
	m := a.partials[step]
	if m == nil {
		if n := len(a.partialFree); n > 0 {
			m = a.partialFree[n-1]
			a.partialFree = a.partialFree[:n-1]
		} else {
			m = make(map[graph.VertexID]partialEntry)
		}
		a.partials[step] = m
	}
	p, seen := m[v]
	if prog := a.prog(); prog != nil {
		if !seen {
			p.agg = prog.ZeroAgg()
		}
		p.agg = prog.MergeAgg(p.agg, agg)
	}
	p.have = p.have || have
	p.outDeg += outDeg
	m[v] = p
}

// replayDeferred re-processes data-plane packets that arrived before the
// run context existed.
func (a *Agent) replayDeferred() { a.replay(&a.deferred) }

// replay re-processes the packets parked in list, now that what they were
// waiting for is here; a handler may park one again.
func (a *Agent) replay(list *[]*wire.Packet) {
	pkts := *list
	*list = nil
	for _, pkt := range pkts {
		if !a.handlePacket(pkt) {
			wire.ReleasePacket(pkt)
		}
	}
}

// deferUntilRun stashes a packet until TAlgoStart, reporting true if it
// was deferred. The ack is withheld, so the sender's barrier gate stays
// open until the packet is really processed.
func (a *Agent) deferUntilRun(pkt *wire.Packet) bool {
	if a.run != nil {
		return false
	}
	a.deferred = append(a.deferred, pkt)
	return true
}

// hubFrame is the one frame of split-vertex records (replica partials, or
// value updates) being built for one peer: begun at its first record, sent
// once. The agent holds a slice of them per record type, indexed like
// router.Agents(); every handler that buffers into one sends it before it
// returns, so no frame outlives the view it was addressed under.
type hubFrame struct {
	buf  []byte
	recs int
	last int // length of the last frame sent this peer, the next one's size hint
}

// hubFrameFor returns the frame for the member at position at, beginning it
// if this is its first record.
func (a *Agent) hubFrameFor(frames *[]hubFrame, typ wire.Type, at int) *hubFrame {
	for len(*frames) <= at {
		*frames = append(*frames, hubFrame{})
	}
	f := &(*frames)[at]
	if f.buf == nil {
		f.buf = a.node.NewFrameHint(typ, f.last)
	}
	f.recs++
	return f
}

func (a *Agent) bufferPartial(at int, p *wire.ReplicaPartial) {
	f := a.hubFrameFor(&a.hubPartials, wire.TReplicaPartial, at)
	f.buf = wire.AppendReplicaPartial(f.buf, p)
}

func (a *Agent) bufferUpdate(at int, u *wire.ValueUpdate) {
	f := a.hubFrameFor(&a.hubUpdates, wire.TValueUpdate, at)
	f.buf = wire.AppendValueUpdate(f.buf, u)
}

// sendHubFrames sends each peer's buffered frame, one acked send a peer
// however many records it carries, and leaves every slot empty.
func (a *Agent) sendHubFrames(frames []hubFrame, g *ackGroup) {
	members := a.router.Agents()
	for at := range frames {
		f := frames[at]
		if f.buf == nil {
			continue
		}
		frames[at] = hubFrame{last: len(f.buf)}
		if addr, ok := a.addrFor(members[at], f.recs); ok {
			a.sendGatedFrame(addr, f.buf, g)
		} else {
			wire.ReleaseFrame(f.buf)
		}
	}
}

// takePartials walks the records of a TReplicaPartial payload. One whose
// vertex this agent masters (or knows no better master for) is stashed and
// the vertex pinned: a master may hold no copies of a split vertex yet still
// owns its combination duties. The others — the sender's view was stale — are
// buffered for their masters under this agent's view; it returns how many,
// and the caller sends them (sendHubFrames over hubPartials).
func (a *Agent) takePartials(payload []byte) (forwarded int) {
	self := consistent.AgentID(a.id)
	n, _ := wire.ReplicaPartialCount(payload) // malformed: no records
	for i := 0; i < n; i++ {
		p := wire.ReplicaPartialAt(payload, i)
		if master, ok := a.router.Master(p.Vertex); ok && master != self {
			if at, ok := a.router.MemberIndex(master); ok {
				a.bufferPartial(at, &p)
				forwarded++
				continue
			}
		}
		a.stashPartial(p.Step, p.Vertex, algorithm.Word(p.Agg), p.HaveMsgs, p.LocalOutDeg)
		a.pinSplit(p.Vertex, 0)
	}
	return forwarded
}

// handlePartial stores a frame of replica partials, re-bucketing by current
// master those mastered elsewhere; the ack of a frame that forwarded any is
// deferred so the sender's barrier covers the extra hop. It reports whether
// it retained ownership of pkt (deferred, or parked as an ack origin).
func (a *Agent) handlePartial(pkt *wire.Packet) bool {
	if a.deferUntilRun(pkt) {
		return true
	}
	forwarded := a.takePartials(pkt.Payload)
	if forwarded == 0 {
		a.node.Ack(pkt)
		return false
	}
	atomic.AddUint64(&a.statForwarded, uint64(forwarded))
	g := &ackGroup{origin: pkt}
	a.sendHubFrames(a.hubPartials, g)
	a.sealGroup(g)
	return true
}

// handleValueUpdate installs a frame of masters' combined states and
// scatters the local out-copies of those that ask for it, all into one
// batcher flushed once. The frame's ack is deferred until those scatters are
// acked, so the master's phase gate transitively covers every scatter its
// frame caused; a frame that scattered nothing is acked at once.
func (a *Agent) handleValueUpdate(pkt *wire.Packet) bool {
	if a.deferUntilRun(pkt) {
		return true
	}
	a.syncPlan()
	r := a.run
	var b *msgBatcher
	var g *ackGroup
	n, _ := wire.ValueUpdateCount(pkt.Payload) // malformed: no records
	for i := 0; i < n; i++ {
		vu := wire.ValueUpdateAt(pkt.Payload, i)
		a.verts.set(vu.Vertex, algorithm.Word(vu.State))
		if !vu.Scatter {
			continue
		}
		// One frame's records share a step as sent; nothing here relies on it.
		if b == nil {
			b, g = a.getBatcher(vu.Step+1), &ackGroup{origin: pkt}
		} else if b.step != vu.Step+1 {
			b.flush(g)
			b.rebind(vu.Step + 1)
		}
		a.scatter(b, vu.Vertex, r.prog.MessageValue(vu.Vertex, algorithm.Word(vu.State), vu.TotalOutDeg, &r.ctx))
	}
	if b == nil {
		a.node.Ack(pkt)
		return false
	}
	b.flush(g)
	a.putBatcher(b)
	a.sealGroup(g)
	return true
}

// handleRegister records at a split vertex's master that a replica holds
// copies of it, or that it holds none any more.
func (a *Agent) handleRegister(pkt *wire.Packet) {
	rr, err := wire.DecodeReplicaRegister(pkt.Payload)
	if err == nil {
		if rr.Deregister {
			a.unpinSplit(rr.Vertex, rr.AgentID)
		} else {
			a.pinSplit(rr.Vertex, rr.AgentID)
		}
	}
	a.node.Ack(pkt)
}

// pinSplit keeps split vertex v present here, its master, for counting and
// combining even when none of its copies is, and records replica (0 = none
// named) as holding some.
func (a *Agent) pinSplit(v graph.VertexID, replica uint64) {
	if a.pins == nil {
		a.pins = make(map[graph.VertexID][]uint64)
	}
	regs := a.pins[v]
	if replica != 0 && !slices.Contains(regs, replica) {
		regs = append(regs, replica)
	}
	a.pins[v] = regs
	a.store.Pin(v)
}

// unpinSplit forgets that replica holds copies of v and drops v's pin once
// no registered replica remains: then the vertex stays here only if a copy
// does.
func (a *Agent) unpinSplit(v graph.VertexID, replica uint64) {
	regs, ok := a.pins[v]
	if !ok {
		return
	}
	if regs = slices.DeleteFunc(regs, func(id uint64) bool { return id == replica }); len(regs) > 0 {
		a.pins[v] = regs
		return
	}
	delete(a.pins, v)
	a.store.Unpin(v)
}

// sealGroup fires a deferred-ack group that ended up with no members,
// releasing the origin packet it owned.
func (a *Agent) sealGroup(g *ackGroup) {
	if g.pending == 0 && g.origin != nil {
		a.node.Ack(g.origin)
		wire.ReleasePacket(g.origin)
		g.origin = nil
	}
}

// msgBatcher accumulates scattered messages per destination agent and
// flushes them as batched TVertexMsgs sends. Batchers live on the
// agent's free list: the per-destination slices are reset in place
// across flushes instead of reallocated (the frame-pool discipline).
type msgBatcher struct {
	agent *Agent
	step  uint32
	mail  *aggTable // the step's mailbox table, resolved at the first local delivery
	self  int       // this agent's member index; -1 when the view lacks it
	dstBufs
}

// rebind points the (flushed) batcher at another step.
func (b *msgBatcher) rebind(step uint32) { b.step, b.mail = step, nil }

// local returns the mailbox table messages for this agent are delivered
// into, resolved once per hand-out rather than per message.
func (b *msgBatcher) local() *aggTable {
	if b.mail == nil {
		b.mail = b.agent.mailFor(b.step)
	}
	return b.mail
}

// getBatcher pops a reusable batcher off the free list and binds it to the
// installed view.
func (a *Agent) getBatcher(step uint32) *msgBatcher {
	var b *msgBatcher
	if n := len(a.batcherFree); n > 0 {
		b = a.batcherFree[n-1]
		a.batcherFree = a.batcherFree[:n-1]
	} else {
		b = &msgBatcher{agent: a}
	}
	b.rebind(step)
	b.bind(a.router.Agents())
	b.self = a.selfIndex()
	return b
}

// putBatcher returns a flushed batcher to the free list. The batcher
// must not be used after this call until getBatcher hands it out again.
func (a *Agent) putBatcher(b *msgBatcher) {
	a.batcherFree = append(a.batcherFree, b)
}

func (b *msgBatcher) add(dst int, m wire.VertexMsg) {
	a := b.agent
	if a.opts.CommAccounting {
		a.account(dst == b.self, 1)
	}
	if dst == b.self {
		// Local delivery: this agent is the message's source, so it gathers
		// straight into the mailbox.
		b.local().gather(a.run.prog, m.Target, algorithm.Word(m.Value))
		return
	}
	b.dstBufs.add(dst, m)
}

// account adds n scattered messages to the local or the remote total. It
// counts logical messages, one per traversed edge, whatever the combiner
// later folds them into; remote bytes are counted where frames are encoded
// (send).
func (a *Agent) account(local bool, n uint64) {
	if local {
		a.localMsgs.Add(n)
	} else {
		a.remoteMsgs.Add(n)
	}
}

// addMany appends a remote-bound message run (the shard-merge fast path).
func (b *msgBatcher) addMany(dst int, msgs []wire.VertexMsg) {
	b.bufs[dst] = append(b.bufs[dst], msgs...)
}

// flush combines, then sends: each destination's buffered messages are
// gathered by target, so what leaves is one aggregate per (destination,
// target) however many edges produced it.
func (b *msgBatcher) flush(groups ...*ackGroup) {
	for i, msgs := range b.bufs {
		b.bufs[i] = b.agent.foldByTarget(msgs)
	}
	b.send(groups...)
}

// send ships every non-empty buffer as one batch of aggregates, resolving
// each destination's address here, once, rather than per entry.
func (b *msgBatcher) send(groups ...*ackGroup) {
	a := b.agent
	for i, msgs := range b.bufs {
		if len(msgs) == 0 {
			continue
		}
		b.bufs[i] = msgs[:0]
		addr, ok := a.addrFor(b.members[i], len(msgs))
		if !ok {
			continue
		}
		// Single-copy send: the batch is appended straight into a pooled
		// frame that the transport recycles after the wire write, so the
		// source slice is immediately reusable.
		frame := wire.AppendVertexMsgBatch(
			a.node.NewFrameHint(wire.TVertexMsgs, 16+24*len(msgs)),
			&wire.VertexMsgBatch{Step: b.step, Msgs: msgs})
		if a.opts.CommAccounting {
			a.remoteBytes.Add(uint64(len(frame)))
		}
		a.sendGatedFrame(addr, frame, groups...)
	}
}

// foldByTarget gathers a buffer of scattered messages by Target, in place:
// the result holds one entry per distinct target, in first-seen order, whose
// Value is the run's Gather over that target's messages and whose Via is the
// first of their sources. This is the one place a remote-bound message is
// gathered; every later hop merges.
func (a *Agent) foldByTarget(msgs []wire.VertexMsg) []wire.VertexMsg {
	if len(msgs) == 0 {
		return msgs
	}
	prog := a.run.prog
	zero := prog.ZeroAgg()
	t := &a.foldTab
	t.reset()
	out := 0
	for _, m := range msgs {
		// The scratch slot's word is the target's position in the output.
		s, fresh := t.put(m.Target)
		if fresh {
			s.agg = algorithm.Word(out)
			m.Value = wire.Word(prog.Gather(zero, algorithm.Word(m.Value)))
			msgs[out] = m
			out++
			continue
		}
		d := &msgs[s.agg]
		d.Value = wire.Word(prog.Gather(algorithm.Word(d.Value), algorithm.Word(m.Value)))
	}
	return msgs[:out]
}

// addrFor resolves dst's listen address for a send carrying n messages. It
// is the one place a message is dropped for want of a route, so the drop
// is counted: a run that loses messages converges to a wrong answer nothing
// else would flag.
func (a *Agent) addrFor(dst consistent.AgentID, n int) (string, bool) {
	addr, ok := a.router.AddrOf(dst)
	if !ok {
		atomic.AddUint64(&a.statUnroutable, uint64(n))
	}
	return addr, ok
}

// routePlan is the routed adjacency: per direction a running program
// scatters along, one byte per entry of the store's sealed array, holding the
// position in router.Agents() of the agent that receives the message sent
// along that sealed edge — EdgeOwnerIndex(neighbour, v), resolved once and
// then read. It is agent epoch state, not store state: valid for one view
// epoch and one sealed generation, and cleared wholesale when either moves
// (syncPlan). A direction's plan is nil while no running program scatters
// that way, on an empty ring, and when the view has more members than a byte
// can name; scatter then resolves every edge through the route table.
type routePlan struct {
	epoch, gen uint64
	dir        [2][]uint8 // indexed by graph.Dir
}

const (
	planUnset   = 0xFF // not resolved under this view yet
	planNoOwner = 0xFE // resolved: the edge has no owner, nothing is sent
	planMembers = 0xFE // the most members a plan byte can name
)

// syncPlan brings the plan in line with the installed view and the store's
// sealed generation. It runs on the event loop ahead of anything that
// scatters, never inside a worker: workers only fill bytes in.
func (a *Agent) syncPlan() {
	p := &a.plan
	epoch, gen := a.router.Epoch(), a.store.Compactions()
	stale := epoch != p.epoch || gen != p.gen
	p.epoch, p.gen = epoch, gen
	n, prog := a.router.NumAgents(), a.run.prog
	usable := n > 0 && n <= planMembers
	for dir, sends := range [2]bool{graph.Out: prog.SendsOut(), graph.In: prog.SendsIn()} {
		want := 0
		if usable && sends {
			want = a.store.SealedLen(graph.Dir(dir))
		}
		plan := p.dir[dir]
		if len(plan) == want && !stale {
			continue
		}
		if want == 0 {
			plan = nil
		} else if cap(plan) < want {
			plan = make([]uint8, want)
		}
		plan = plan[:want]
		for i := range plan {
			plan[i] = planUnset
		}
		p.dir[dir] = plan
	}
}

// scatter sends v's message value along its locally stored edges, in the
// directions the program uses. The sink is the event-loop batcher on
// sequential paths and a worker-private shard during parallel phases.
func (a *Agent) scatter(b msgSink, v graph.VertexID, mv algorithm.Word) {
	if a.run.prog.SendsOut() {
		a.scatterDir(b, v, mv, graph.Out)
	}
	if a.run.prog.SendsIn() {
		a.scatterDir(b, v, mv, graph.In)
	}
}

// scatterDir sends mv to v's neighbours in one direction. A vertex whose
// sealed run is its whole neighbourhood walks run and plan side by side,
// resolving the run through the route table the first time its leading byte
// reads unset; afterwards an edge costs no lookup. Callers process a vertex
// on one goroutine at a time and runs do not overlap, so workers fill
// disjoint byte ranges and the fill needs no lock. A vertex with tail edits
// in this direction — or any vertex while the plan is nil — iterates the
// store's cursor and resolves each edge as it goes.
func (a *Agent) scatterDir(b msgSink, v graph.VertexID, mv algorithm.Word, dir graph.Dir) {
	adjust := a.run.adjust
	if plan := a.plan.dir[dir]; plan != nil {
		if run, off, whole := a.store.SealedRun(v, dir); whole {
			if len(run) == 0 {
				return
			}
			plan = plan[off : off+len(run)]
			if plan[0] == planUnset {
				for i, w := range run {
					plan[i] = planNoOwner
					if dst, ok := a.router.EdgeOwnerIndex(w, v); ok {
						plan[i] = uint8(dst)
					}
				}
			}
			for i, w := range run {
				if dst := plan[i]; dst != planNoOwner {
					val := mv
					if adjust != nil {
						val = adjustEdge(adjust, v, w, mv, dir)
					}
					b.add(int(dst), wire.VertexMsg{Target: w, Via: v, Value: wire.Word(val)})
				}
			}
			return
		}
	}
	// Value-type cursor, built in place: iteration over sealed run + delta
	// tail with no per-vertex allocation or copy.
	var it graph.Cursor
	if dir == graph.Out {
		a.store.OutCursorInto(&it, v)
	} else {
		a.store.InCursorInto(&it, v)
	}
	for {
		w, ok := it.Next()
		if !ok {
			return
		}
		if dst, ok := a.router.EdgeOwnerIndex(w, v); ok {
			val := mv
			if adjust != nil {
				val = adjustEdge(adjust, v, w, mv, dir)
			}
			b.add(dst, wire.VertexMsg{Target: w, Via: v, Value: wire.Word(val)})
		}
	}
}

// adjustEdge is mv as a per-edge-adjusting program sends it along the edge
// between v and its dir-neighbour w, the edge keeping its orientation: (v, w)
// outwards, (w, v) inwards.
func adjustEdge(adj algorithm.PerEdgeAdjuster, v, w graph.VertexID, mv algorithm.Word, dir graph.Dir) algorithm.Word {
	if dir == graph.Out {
		return adj.AdjustPerEdge(v, w, mv)
	}
	return adj.AdjustPerEdge(w, v, mv)
}

// prog returns the installed run's program, nil between runs.
func (a *Agent) prog() algorithm.Program {
	if a.run == nil {
		return nil
	}
	return a.run.prog
}

// mailFor returns the step's mailbox table, taking one off the free list
// if the step has none yet. Callers resolve it once per batch and then
// gather (messages produced here) or merge (aggregates received) into it.
func (a *Agent) mailFor(step uint32) *aggTable {
	t := a.mailbox[step]
	if t == nil {
		if n := len(a.tableFree); n > 0 {
			t = a.tableFree[n-1]
			a.tableFree = a.tableFree[:n-1]
		} else {
			t = &aggTable{}
		}
		a.mailbox[step] = t
	}
	return t
}

// recycleMail returns a consumed step mailbox — already detached from
// a.mailbox and fully folded — to the free list, emptied with its capacity
// kept, so steady-state supersteps aggregate into the same few tables.
func (a *Agent) recycleMail(t *aggTable) {
	if t == nil {
		return
	}
	t.reset()
	a.tableFree = append(a.tableFree, t)
}

// handleVertexMsgs accepts a batch of per-target aggregates: those this
// agent can serve (it is a replica of the target) are merged; the rest are
// forwarded with deferred acknowledgement.
func (a *Agent) handleVertexMsgs(pkt *wire.Packet) bool {
	// Decode into the agent's scratch batch: slice capacity is reused
	// across packets, and nothing below retains batch.Msgs (entries are
	// merged into the mailbox or copied into frames before returning).
	batch := &a.scratchVMB
	if err := wire.DecodeVertexMsgBatchInto(batch, pkt.Payload); err != nil {
		a.node.Ack(pkt)
		return false
	}
	if batch.Async {
		// Async batches process immediately (no superstep). Batches
		// racing ahead of TAlgoStart are stashed and replayed so the
		// quiescence counters stay balanced.
		if a.run == nil {
			a.deferred = append(a.deferred, pkt)
			return true
		}
		a.handleAsyncMsgs(batch)
		return false
	}
	b := a.getBatcher(batch.Step)
	forwarded := a.acceptAggs(b, batch.Msgs)
	if forwarded == 0 {
		// Pure-accept path: everything landed in the local mailbox, so the
		// ack fires immediately and no group is allocated.
		a.putBatcher(b)
		a.node.Ack(pkt)
		return false
	}
	atomic.AddUint64(&a.statForwarded, uint64(forwarded))
	g := &ackGroup{origin: pkt}
	b.send(g)
	a.putBatcher(b)
	a.sealGroup(g)
	return true
}

// acceptAggs takes in a batch of aggregates for b's step. Those this agent
// can serve (it is a replica of the target, or knows no better owner) merge
// into the step's mailbox table, resolved once for the batch; the rest are
// buffered in b, unchanged, for a replica of their target — the sender's
// view was stale, any replica will do, and Via (one of the folded sources)
// picks one. Only a target's first aggregate is looked up: a live entry is
// one this agent serves under the installed view, every view change having
// re-routed the others away (rerouteMail). It returns how many it buffered;
// the caller sends them.
func (a *Agent) acceptAggs(b *msgBatcher, msgs []wire.VertexMsg) (forwarded int) {
	self := consistent.AgentID(a.id)
	mail, prog := b.local(), a.prog()
	for _, m := range msgs {
		s, fresh := mail.put(m.Target)
		if fresh && !a.router.IsReplica(m.Target, self) {
			if dst, ok := a.router.EdgeOwnerIndex(m.Target, m.Via); ok && dst != b.self {
				mail.kill(s)
				b.dstBufs.add(dst, m)
				forwarded++
				continue
			}
		}
		mail.merge(prog, s, algorithm.Word(m.Value))
	}
	return forwarded
}

// isReplicaOf reports whether this agent is in the target's replica set,
// resolved from the router's route table without materializing the set.
func (a *Agent) isReplicaOf(v graph.VertexID) bool {
	return a.router.IsReplica(v, consistent.AgentID(a.id))
}

// handleQuery answers a client vertex query from current state — the
// low-latency path of §3.1.
func (a *Agent) handleQuery(pkt *wire.Packet) {
	q, err := wire.DecodeQuery(pkt.Payload)
	if err != nil {
		return
	}
	atomic.AddUint64(&a.statQueries, 1)
	rep := &wire.QueryReply{}
	if w, ok := a.verts.get(q.Vertex); ok {
		rep.Found = true
		rep.State = wire.Word(w)
	} else if a.store.HasVertex(q.Vertex) {
		rep.Found = true
	}
	if a.run != nil {
		rep.Step = a.run.step
	}
	_ = a.node.ReplyFrame(pkt, wire.AppendQueryReply(a.node.NewFrame(wire.TQueryReply), rep))
}
