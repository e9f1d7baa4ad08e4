package agent

import (
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

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
	// The run's last vote left a barrier span open, and an interrupted
	// phase may have left its span: close both so neither outlives the run.
	a.phaseSpan.End()
	a.phaseSpan = trace.ActiveSpan{}
	a.barrierSpan.End()
	a.barrierSpan = trace.ActiveSpan{}
	a.run = nil
	// An Advance parked for a later run stays for that run's TAlgoStart: a
	// resent TAlgoDone can arrive after it.
	if a.pendingAdv != nil && a.pendingAdv.RunID <= done.RunID {
		a.pendingAdv = nil
	}
	// Drop per-run message state: the mail keeps its arrays, the partial
	// maps go back to the free list.
	for k := range a.verts.mail {
		a.verts.mail[k].close()
	}
	a.prerun = nil
	for _, m := range a.partials {
		a.recyclePartials(m)
	}
	clear(a.partials)
	a.trimScratch()
	a.releaseBuffered()
}

// handleAdvance drives a phase transition. tctx is the distributed trace
// context the Advance frame carried (zero when tracing is off): the
// coordinator's step span, under which this agent's phase and
// barrier-wait spans link.
func (a *Agent) handleAdvance(adv *wire.Advance, tctx trace.SpanContext) {
	if adv.Phase == wire.PhaseMigrate {
		if adv.Step == uint32(a.migratedEpoch) {
			a.migrating = false
			a.releaseBuffered()
		}
		// Migration-complete broadcast: leavers may exit once drained.
		// When the whole membership left at once there is no destination
		// for the data — the cluster is shutting down, so exit anyway.
		if a.leaving && (a.store.NumEdgeCopies() == 0 || a.router.NumAgents() == 0) {
			a.readyToExit = true
		}
		for _, addr := range a.departed {
			if !a.peers[addr] { // not back under a new identity
				a.retirePeer(addr)
			}
		}
		a.departed = a.departed[:0]
		return
	}
	r := a.run
	if r == nil || adv.RunID != r.id {
		// The run this Advance drives hasn't been announced here yet: a
		// dropped TAlgoStart can be redelivered after the step-0 Advance
		// (retransmission reorders frames). Discarding would wedge the
		// barrier — the coordinator never re-sends an Advance — so park
		// it for handleAlgoStart to replay.
		if adv.RunID != 0 && (r == nil || adv.RunID > r.id) {
			a.pendingAdv = adv
			a.pendingAdvCtx = tctx
		}
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
	r.phaseStart = a.ep.Now()
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
	// Fresh gate per phase; the prior one drained before its vote let this
	// Advance come.
	a.phaseGate = &ackGroup{}
	phaseName := "compute"
	if adv.Phase == wire.PhaseCombine {
		phaseName = "combine"
	}
	// The distributed phase span links under the coordinator's step span
	// (tctx rode the Advance frame) and runs until the barrier vote
	// (endPhase), cast here or later, once the gate drains.
	a.phaseSpan.End() // close any dangling span from an interrupted phase
	a.phaseSpan = a.tracer.StartRemote(phaseName, tctx)
	switch adv.Phase {
	case wire.PhaseCompute:
		a.processCompute()
	case wire.PhaseCombine:
		a.processCombine()
	}
}

// processCompute is superstep phase 1: read the step's mail, update and
// scatter non-split vertices, and ship split-vertex partials to masters.
func (a *Agent) processCompute() {
	// Injected compute-phase latency (SetComputeDelay) stalls this agent's
	// barrier vote by holding the phase gate open for the delay while the
	// event loop keeps draining the inbox — like a real straggler whose
	// core is pegged while its transport still acks.
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

	t, mail := &a.verts, a.stepMail(r.step)

	// Work list: active vertices plus everything with mail, plus any
	// activity that arrived through migration (st.Active marks), each probed
	// once; the walk reads the records by slot. Always-active programs
	// (PageRank) must also feed split-vertex partials every step so masters
	// can rebuild total out-degrees. A standing list is the active set already, and holds
	// every plan source: only the other mail targets need marking.
	p, standing := &a.dense, a.standingWork()
	if !standing {
		t.begin(setWork)
		for _, i := range t.list[setActive] {
			if t.in(setActive, i) {
				t.mark(setWork, i)
			}
		}
	}
	for _, i := range mail.order {
		if !standing || !p.source(i) {
			t.mark(setWork, i)
		}
	}
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
	a.syncDense(work)

	self, s := consistent.AgentID(a.id), a.sink()
	for _, i := range work {
		a.computeVertex(s, i, mail, self)
	}
	mail.close() // read: step+2's mail may come here once this step is voted
	went := int(s.activeNext)
	folded := a.flushPhase(s, r.step+1, self)
	p.stand = workStamp{run: r.id, step: r.step, gen: t.gen[setWork], ok: folded && went == len(work)}
	a.endPhase()
}

// seedStep is step 0 of an incremental run: the seeds announce and nothing
// else runs, no vertex having mail yet. What they send counts as activity,
// so the directory does not halt the run before step 1 reads it. As the
// run's final step it counts the same announcements and sends none: the
// shard is emptied, not delivered.
func (a *Agent) seedStep() {
	r, s := a.run, a.sink()
	r.activeNext += a.announceSeeds(s, func(v graph.VertexID, mv algorithm.Word) { a.scatter(s, v, mv) })
	if r.final() {
		s.reset()
	} else {
		a.deliver(s, 1, false, a.phaseGate)
	}
	a.endPhase()
}

// messageValue is v's message value for state w, over its local out-degree.
func (a *Agent) messageValue(v graph.VertexID, w algorithm.Word) algorithm.Word {
	out, _ := a.store.Degree(v)
	return a.run.prog.MessageValue(v, w, uint64(out), &a.run.ctx)
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
func (a *Agent) announceSeeds(b *computeShard, scatterAll func(v graph.VertexID, mv algorithm.Word)) (announced uint64) {
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
			mv := a.messageValue(v, val)
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
		scatterAll(v, a.messageValue(v, a.valueOf(v)))
	}
	return uint64(len(seeds))
}

// initStates starts a from-scratch run: every present vertex gets its initial
// state and the initially active ones make up the active set — in vertex
// order, not the store's record order, which follows the history of edits,
// so that the work lists that follow are a function of the run's input.
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
// updates (combineVertex, vertex by vertex); the sends leave at the flush.
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
	for _, v := range a.combineKeys {
		t.mark(setWork, t.at(v))
	}
	s := a.sink()
	for _, i := range t.list[setWork] {
		a.combineVertex(s, i, parts[t.slots[i].key], self)
	}
	a.recyclePartials(parts)
	a.flushPhase(s, r.step+1, self)
	a.endPhase()
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

// recyclePartials empties a step's partial map onto the free list, noting
// its size (a map keeps its capacity).
func (a *Agent) recyclePartials(m map[graph.VertexID]partialEntry) {
	if m != nil {
		a.partialsUsed, a.partialsHeld = max(a.partialsUsed, len(m)), max(a.partialsHeld, len(m))
		clear(m)
		a.partialFree = append(a.partialFree, m)
	}
}

// trimScratch ends a run's hold on the phase scratch (scratchFloor), the
// mail being empty and the partial maps back on their free list.
func (a *Agent) trimScratch() {
	a.shard.trim(a.router.NumAgents())
	a.verts.trimMail()
	if a.foldTab.spent() {
		a.foldTab = aggTable{}
	}
	a.trimDense()
	if !keepScratch(a.partialsHeld, int(unsafe.Sizeof(partialEntry{})), a.partialsUsed) {
		a.partialFree, a.partialsHeld = nil, 0
	}
	// The combine list holds a consumed partial map's keys.
	a.combineKeys = trimmed(a.combineKeys, a.partialsUsed)
	a.partialsUsed = 0
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
		f.buf = a.ep.NewFrameHint(typ, f.last)
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
		a.ep.Ack(pkt)
		return false
	}
	atomic.AddUint64(&a.statForwarded, uint64(forwarded))
	g := &ackGroup{}
	a.sendHubFrames(a.hubPartials, g)
	a.ackWhenDrained(g, pkt)
	return true
}

// handleValueUpdate installs a frame of masters' combined states and
// scatters the local out-copies of those that ask for it, all into one
// shard delivered once. The frame's ack is deferred until those scatters are
// acked, so the master's phase gate transitively covers every scatter its
// frame caused; a frame that scattered nothing is acked at once.
func (a *Agent) handleValueUpdate(pkt *wire.Packet) bool {
	if a.deferUntilRun(pkt) {
		return true
	}
	a.syncPlan()
	r := a.run
	var s *computeShard
	var g *ackGroup
	var step uint32
	n, _ := wire.ValueUpdateCount(pkt.Payload) // malformed: no records
	for i := 0; i < n; i++ {
		vu := wire.ValueUpdateAt(pkt.Payload, i)
		a.verts.set(vu.Vertex, algorithm.Word(vu.State))
		if !vu.Scatter {
			continue
		}
		// One frame's records share a step as sent; nothing here relies on it.
		if s == nil {
			s, g = a.sink(), &ackGroup{}
		} else if step != vu.Step+1 {
			a.deliver(s, step, false, g)
		}
		step = vu.Step + 1
		a.scatter(s, vu.Vertex, r.prog.MessageValue(vu.Vertex, algorithm.Word(vu.State), vu.TotalOutDeg, &r.ctx))
	}
	if s == nil {
		a.ep.Ack(pkt)
		return false
	}
	a.deliver(s, step, false, g)
	a.ackWhenDrained(g, pkt)
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
	a.ep.Ack(pkt)
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

// sendMsgs ships msgs, if any, to dst as one batch of step's aggregates,
// resolving dst's address here, once, rather than per entry.
func (a *Agent) sendMsgs(dst consistent.AgentID, step uint32, msgs []wire.VertexMsg, g *ackGroup) {
	addr, ok := a.addrFor(dst, len(msgs))
	if len(msgs) == 0 || !ok {
		return
	}
	// Single-copy send: the batch is appended straight into a pooled frame
	// the transport recycles after the wire write; msgs is reusable at once.
	frame := wire.AppendVertexMsgBatch(
		a.ep.NewFrameHint(wire.TVertexMsgs, 16+24*len(msgs)),
		&wire.VertexMsgBatch{Step: step, Msgs: msgs})
	if a.opts.CommAccounting {
		a.remoteBytes.Add(uint64(len(frame)))
	}
	a.sendGatedFrame(addr, frame, g)
}

// foldByTarget gathers msgs by Target onto out, the same destination's
// messages folded so far (out = msgs[:0] folds in place): one entry per
// distinct target, in first-seen order, whose Value is the run's Gather over
// that target's messages and whose Via is the first of their sources. This is
// the one place a remote-bound message is gathered; every later hop merges.
func (a *Agent) foldByTarget(out, msgs []wire.VertexMsg) []wire.VertexMsg {
	if len(msgs) == 0 {
		return out
	}
	prog := a.run.prog
	zero := prog.ZeroAgg()
	t := &a.foldTab
	if len(out) == 0 {
		t.reset()
	}
	for _, m := range msgs {
		// The scratch slot's word is the target's position in out.
		s, fresh := t.put(m.Target)
		if fresh {
			s.agg = algorithm.Word(len(out))
			m.Value = wire.Word(prog.Gather(zero, algorithm.Word(m.Value)))
			out = append(out, m)
			continue
		}
		d := &out[s.agg]
		d.Value = wire.Word(prog.Gather(algorithm.Word(d.Value), algorithm.Word(m.Value)))
	}
	return out
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
// sealed generation, ahead of anything that scatters; scatters only fill
// bytes in.
func (a *Agent) syncPlan() {
	p := &a.plan
	epoch, gen := a.router.Epoch(), a.store.Compactions()
	stale := epoch != p.epoch || gen != p.gen
	p.epoch, p.gen = epoch, gen
	n, prog := a.router.NumAgents(), a.run.prog
	usable := n > 0 && n <= planMembers
	for dir, sends := range sendDirs(prog) {
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
// directions the program uses, into b, the agent's shard (sink).
func (a *Agent) scatter(b *computeShard, v graph.VertexID, mv algorithm.Word) {
	var runs graph.VertexRuns
	a.store.RunsInto(&runs, v)
	a.scatterRuns(b, v, mv, &runs)
}

// scatterRuns is scatter for a caller that has read v's runs already.
func (a *Agent) scatterRuns(b *computeShard, v graph.VertexID, mv algorithm.Word, runs *graph.VertexRuns) {
	if a.run.prog.SendsOut() {
		a.scatterDir(b, v, mv, graph.Out, runs)
	}
	if a.run.prog.SendsIn() {
		a.scatterDir(b, v, mv, graph.In, runs)
	}
}

// scatterDir sends mv to v's neighbours in one direction. A vertex whose
// sealed run is its whole neighbourhood walks run and plan side by side,
// resolving the run through the route table the first time its leading byte
// reads unset; afterwards an edge costs no lookup. A vertex with tail edits
// in this direction — or any vertex while the plan is nil — iterates the
// store's cursor and resolves each edge as it goes.
func (a *Agent) scatterDir(b *computeShard, v graph.VertexID, mv algorithm.Word, dir graph.Dir, runs *graph.VertexRuns) {
	adjust := a.run.adjust
	if plan := a.routedRun(v, dir, runs); plan != nil {
		for i, w := range runs.Run[dir] {
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

// routedRun returns the plan bytes of v's sealed run in direction dir, which
// must be its whole neighbourhood there, resolving the run through the route
// table the first time its leading byte reads unset. It returns nil when the
// run is not whole or no plan covers the direction.
func (a *Agent) routedRun(v graph.VertexID, dir graph.Dir, runs *graph.VertexRuns) []uint8 {
	plan, run, off := a.plan.dir[dir], runs.Run[dir], runs.Off[dir]
	if plan == nil || !runs.Whole[dir] {
		return nil
	}
	plan = plan[off : off+len(run)]
	if len(run) > 0 && plan[0] == planUnset {
		for i, w := range run {
			plan[i] = planNoOwner
			if dst, ok := a.router.EdgeOwnerIndex(w, v); ok {
				plan[i] = uint8(dst)
			}
		}
	}
	return plan
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

// handleVertexMsgs accepts a batch of per-target aggregates: those this
// agent can serve (it is a replica of the target) are merged; the rest are
// forwarded with deferred acknowledgement.
func (a *Agent) handleVertexMsgs(pkt *wire.Packet) bool {
	// Decode into the agent's scratch batch: slice capacity is reused
	// across packets, and nothing below retains batch.Msgs (entries are
	// merged into the mail or copied into frames before returning).
	batch := &a.scratchVMB
	if err := wire.DecodeVertexMsgBatchInto(batch, pkt.Payload); err != nil {
		a.ep.Ack(pkt)
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
		a.ep.Ack(pkt)
		return false
	}
	s := a.sink()
	forwarded := a.acceptAggs(s, batch.Step, batch.Msgs, pkt.From)
	if forwarded == 0 {
		// Pure-accept path: everything landed in the local mail, so the
		// ack fires immediately and no group is allocated.
		s.reset()
		a.ep.Ack(pkt)
		return false
	}
	atomic.AddUint64(&a.statForwarded, uint64(forwarded))
	g := &ackGroup{}
	a.sendBufs(s, batch.Step, g)
	a.ackWhenDrained(g, pkt)
	return true
}

// stepMsg is an aggregate for step that arrived with no run installed.
type stepMsg struct {
	step uint32
	msg  wire.VertexMsg
}

// acceptAggs takes in a batch of aggregates for step. Those this agent can
// serve (it is a replica of the target, or knows no better owner) merge into
// the step's mail; the rest are buffered in s, unchanged, for a replica of
// their target — the sender's view was stale, any replica will do, and Via
// (one of the folded sources) picks one. A target with an entry in the step's
// mail is one this agent serves, every view change having re-routed the
// others away (rerouteMail). In a dense run, a message whose target is the
// one the peer at from sent at the same position of its last frame merges by
// the slot cached for it (peerSlots); any other costs one vertex-table
// probe, and the check reads the record's replica bit, which, if set, caches
// the slot. A served target with no record gets one, which may move the
// table; the router is asked at most once per view and target. With no run
// installed, a served aggregate waits raw in prerun. A re-routed frame passes
// no from and caches nothing. It returns how many it buffered; the caller
// sends them.
func (a *Agent) acceptAggs(s *computeShard, step uint32, msgs []wire.VertexMsg, from string) (forwarded int) {
	t, prog, self := &a.verts, a.prog(), a.selfIndex()
	forward := func(msg *wire.VertexMsg) bool {
		dst, ok := a.router.EdgeOwnerIndex(msg.Target, msg.Via)
		if ok && dst != self {
			s.add(dst, *msg)
			forwarded++
		}
		return ok && dst != self
	}
	if prog == nil {
		for k := range msgs {
			if msg := &msgs[k]; a.replicaHere(msg.Target) || !forward(msg) {
				a.prerun = append(a.prerun, stepMsg{step, *msg})
			}
		}
		return forwarded
	}
	if !a.dense.on {
		from = "" // a push run's senders keep no target order: cache nothing
	}
	m, c, sum, layout := t.mailOf(step), t.peerSlots(from), algorithm.IsFloatSum(prog), t.layout
	for k := range msgs {
		msg := &msgs[k]
		i, hit := c.at(k, msg.Target)
		if !hit {
			j := t.find(msg.Target)
			if j < 0 {
				if !a.isReplicaOf(msg.Target) && forward(msg) {
					continue
				}
				if j = int(t.at(msg.Target)); t.layout != layout {
					c, layout = t.peerSlots(from), t.layout // the cached slots moved
				}
			}
			i = uint32(j)
			if held := m.holds(i); c != nil || !held {
				if a.placement(i)&viewReplica != 0 {
					c.put(k, msg.Target, i)
				} else if !held && forward(msg) {
					continue
				}
			}
		}
		m.merge(prog, sum, i, algorithm.Word(msg.Value))
	}
	return forwarded
}

// gatherLocal gathers messages produced here, each addressed to this agent,
// into step's mail, giving a target with no record one.
func (a *Agent) gatherLocal(step uint32, msgs []wire.VertexMsg) {
	t, prog := &a.verts, a.run.prog
	m := t.mailOf(step)
	for _, msg := range msgs {
		i := t.at(msg.Target) // may move the table, and m's arrays with it
		w := m.eager(prog, i)
		*w = prog.Gather(*w, algorithm.Word(msg.Value))
	}
}

// stepMail returns step's mail for reading, with the aggregates that
// arrived for it before the run was installed merged in, in arrival order,
// after what the step's mail held: a target's ZeroAgg if nothing.
func (a *Agent) stepMail(step uint32) *slotMail {
	t, prog := &a.verts, a.run.prog
	m := t.mailOf(step)
	kept := a.prerun[:0]
	for _, e := range a.prerun {
		if e.step != step {
			kept = append(kept, e)
			continue
		}
		i := t.at(e.msg.Target)
		w := m.eager(prog, i)
		*w = prog.MergeAgg(*w, algorithm.Word(e.msg.Value))
	}
	a.prerun = kept
	return m
}

// isReplicaOf reports whether this agent is in the target's replica set,
// resolved from the router's route table without materializing the set.
func (a *Agent) isReplicaOf(v graph.VertexID) bool {
	return a.router.IsReplica(v, consistent.AgentID(a.id))
}

// replicaHere is isReplicaOf answered from v's vertex record when it has
// one, which caches the answer for the installed view.
func (a *Agent) replicaHere(v graph.VertexID) bool {
	if i := a.verts.find(v); i >= 0 {
		return a.placement(uint32(i))&viewReplica != 0
	}
	return a.isReplicaOf(v)
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
	_ = a.ep.ReplyFrame(pkt, wire.AppendQueryReply(a.ep.NewFrame(wire.TQueryReply), rep))
}
