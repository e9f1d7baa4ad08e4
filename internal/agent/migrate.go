package agent

import (
	"fmt"
	"sync/atomic"

	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// handleView installs a directory view and, if the epoch advanced, runs
// the migration round of §3.4.3: re-evaluate the destination of held edge
// copies, forward misplaced ones, and vote the round complete. A view that
// changed only the sketch re-evaluates just the vertices the router
// rerouted; a membership or override change re-evaluates every copy.
func (a *Agent) handleView(v *wire.View) {
	// Snapshot the outgoing membership before the router re-indexes, so
	// in-flight sends stranded toward evicted peers can be reclaimed.
	prevAddrs := make(map[string]bool)
	for _, id := range a.router.Agents() {
		if addr, ok := a.router.AddrOf(id); ok {
			prevAddrs[addr] = true
		}
	}
	changed, err := a.router.Update(v)
	if err != nil || !changed {
		return
	}
	epoch := a.router.Epoch()
	if epoch <= a.migratedEpoch {
		return
	}
	a.migratedEpoch = epoch
	a.trace("view epoch=%d members=%v", epoch, v.Agents)
	// The router only knows vertices it was asked about since its last
	// wholesale install. Every such install is followed by the full round
	// below, which looks up each held copy's vertex, and copies arriving
	// later are looked up before they are stored — so a sketch-only list
	// covers everything this agent holds.
	if rerouted, sketchOnly := a.router.Rerouted(); sketchOnly {
		for _, u := range rerouted {
			delete(a.registered, u)
		}
		a.migrate(uint32(epoch), rerouted, true)
		return
	}
	if !a.router.IsMember(consistent.AgentID(a.id)) {
		// We are being removed: everything must leave (§3.4.3, "it
		// evaluates its edges normally and determines they all need to
		// leave").
		if !a.leaving {
			// First sight of our own eviction (lease sweep or forced
			// removal): dump the flight recorder while the recent spans
			// still tell the story. We are already on the event loop, so
			// the dump cannot race Close.
			a.tracer.DumpFlight("evicted")
		}
		a.leaving = true
	}
	// Mastership moves with the membership: forget which masters were
	// told about our split vertices so refreshRegistrations re-announces
	// them under the new view.
	clear(a.registered)
	// Reclaim unacknowledged sends toward peers that left the view and
	// re-route their contents under the new epoch. The gates those sends
	// fed stay held until the replacements complete, so barrier
	// accounting survives peer death without losing data.
	for _, id := range a.router.Agents() {
		if addr, ok := a.router.AddrOf(id); ok {
			delete(prevAddrs, addr)
		}
	}
	delete(prevAddrs, a.node.Addr())
	for addr := range prevAddrs {
		for _, f := range a.node.CancelPeer(addr) {
			a.rerouteFailed(f)
		}
	}
	a.migrate(uint32(epoch), nil, false)
}

// rerouteFailed re-dispatches one reclaimed in-flight send under the
// current view. Vertex messages re-resolve their owner, edge shipments
// re-apply (forwarding misplaced copies), and replica partials chase the
// vertex's new master. Everything re-sent funnels through a fresh gate
// whose drain releases the original request, keeping the phase gates the
// failed send fed correctly held in the meantime. Types with no
// surviving destination — value updates to the dead replica,
// registrations (re-announced after the registered reset) — are dropped.
func (a *Agent) rerouteFailed(f transport.FailedSend) {
	pkt := wire.GetPacket()
	if err := wire.UnmarshalPacketInto(pkt, f.Frame, nil); err != nil {
		wire.ReleasePacket(pkt)
		a.onAck(f.Req)
		return
	}
	g := &ackGroup{}
	self := consistent.AgentID(a.id)
	switch pkt.Type {
	case wire.TVertexMsgs:
		batch := &a.scratchVMB
		if err := wire.DecodeVertexMsgBatchInto(batch, pkt.Payload); err == nil && !batch.Async {
			b := a.getBatcher(batch.Step)
			a.acceptAggs(b, batch.Msgs)
			b.send(g)
			a.putBatcher(b)
		}
	case wire.TEdges:
		batch := &a.scratchEB
		if err := wire.DecodeEdgeBatchInto(batch, pkt.Payload); err == nil {
			states := make(map[graph.VertexID]wire.VertexState, len(batch.States))
			for _, st := range batch.States {
				states[st.Vertex] = st
			}
			a.applyChanges(batch.Changes, batch.Migration, g, states)
		}
	case wire.TReplicaPartial:
		if p, err := wire.DecodeReplicaPartial(pkt.Payload); err == nil {
			if master, ok := a.router.Master(p.Vertex); ok {
				if master == self {
					a.stashPartial(p.Step, p.Vertex, algorithm.Word(p.Agg), p.HaveMsgs, p.LocalOutDeg)
					a.store.Pin(p.Vertex)
				} else if addr, ok2 := a.addrFor(master, 1); ok2 {
					a.sendGated(addr, wire.TReplicaPartial, pkt.Payload, g)
				}
			}
		}
	}
	wire.ReleasePacket(pkt)
	a.voteWhenDrained(g, func() { a.onAck(f.Req) })
}

// migrationShipment accumulates copies and state headed to one agent.
type migrationShipment struct {
	changes []wire.EdgeChange
	states  map[graph.VertexID]wire.VertexState
}

// migrate re-evaluates held copies under the current view, ships the
// misplaced ones (with vertex state and pending mailbox contributions),
// refreshes replica registrations, and votes Ready(PhaseMigrate) once all
// shipments are acknowledged. With sketchOnly set, only the rerouted
// vertices can have moved, so only their copies, mail and registrations
// are looked at; otherwise everything held is.
func (a *Agent) migrate(epochLow uint32, rerouted []graph.VertexID, sketchOnly bool) {
	var sp trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan(fmt.Sprintf("a%d migrate epoch=%d", a.id, epochLow))
	}
	defer sp.End()
	self := consistent.AgentID(a.id)
	shipments := make(map[consistent.AgentID]*migrationShipment)
	var drop []graph.EdgeCopy
	consider := func(c graph.EdgeCopy) bool {
		owner, ok := a.router.CopyOwner(wire.EdgeChange{Src: c.Src, Dst: c.Dst, Dir: c.Dir})
		if !ok || owner == self {
			return true
		}
		s := shipments[owner]
		if s == nil {
			s = &migrationShipment{states: make(map[graph.VertexID]wire.VertexState)}
			shipments[owner] = s
		}
		s.changes = append(s.changes, wire.EdgeChange{
			Action: graph.Insert, Src: c.Src, Dst: c.Dst, Dir: c.Dir,
		})
		keyed := c.Src
		if c.Dir == graph.In {
			keyed = c.Dst
		}
		if w, ok := a.values[keyed]; ok {
			active := a.store.IsActive(keyed)
			if a.run != nil {
				if _, on := a.run.active[keyed]; on {
					active = true
				}
			}
			s.states[keyed] = wire.VertexState{Vertex: keyed, State: wire.Word(w), Active: active}
		}
		a.trace("migrate-ship copy=(%d,%d,%d) to=%d", c.Src, c.Dst, c.Dir, owner)
		drop = append(drop, c)
		return true
	}
	if sketchOnly {
		for _, v := range rerouted {
			a.store.CopiesOf(v, consider)
		}
	} else {
		a.store.Copies(consider)
	}

	// Remove moved copies; the receiver owns them once the send is
	// acknowledged, and the ack gate holds our vote until then.
	moved := make(map[graph.VertexID]bool)
	for _, c := range drop {
		a.store.RemoveEdge(c.Src, c.Dst, c.Dir)
		if c.Dir == graph.In {
			moved[c.Dst] = true
		} else {
			moved[c.Src] = true
		}
	}

	// Migration runs its own gate; the run's phase gate (owned by
	// handleAdvance) stays untouched so a mid-phase view change cannot
	// clobber in-progress barrier accounting.
	gate := &ackGroup{}
	var shippedBytes uint64
	for owner, s := range shipments {
		addr, ok := a.router.AddrOf(owner)
		if !ok {
			continue
		}
		states := make([]wire.VertexState, 0, len(s.states))
		for _, st := range s.states {
			states = append(states, st)
		}
		frame := wire.AppendEdgeBatch(
			a.node.NewFrameHint(wire.TEdges, 32+32*len(s.changes)+24*len(states)),
			&wire.EdgeBatch{
				Epoch: a.router.Epoch(), Migration: true, Changes: s.changes, States: states,
			})
		a.m.migBatch.Observe(float64(len(s.changes)))
		shippedBytes += uint64(len(frame))
		a.sendGatedFrame(addr, frame, gate)
	}
	if shippedBytes > 0 {
		a.m.migBytes.Add(shippedBytes)
		// The directory sees migration cost too: heavy shipments are the
		// scale-decision backpressure §3.4.3 warns about.
		a.sendMetric(autoscale.MetricMigrationBytes, float64(shippedBytes))
	}

	// Re-route pending mailbox contributions for every vertex this agent
	// is no longer a replica of (mid-run elasticity: messages follow the
	// copies). This must work even before the agent has a run context —
	// a mid-run joiner only learns the run at resume, after migrations —
	// so without a program to fold them the raw aggregates are resent as
	// they came.
	for step, t := range a.mailbox {
		b := a.getBatcher(step)
		if sketchOnly {
			for _, v := range rerouted {
				if s := t.get(v); s != nil {
					a.rerouteMail(b, t, s)
				}
			}
		} else {
			t.each(func(s *aggSlot) { a.rerouteMail(b, t, s) })
		}
		b.send(gate)
		a.putBatcher(b)
	}
	// Pending partials whose mastership moved are re-shipped during
	// the combine phase (processCombine handles stale masters).

	// Drop cached state and activity for vertices with no remaining
	// local presence; the new owner received both.
	for v := range moved {
		if !a.store.HasVertex(v) {
			delete(a.values, v)
			delete(a.totalOutDeg, v)
			delete(a.registered, v)
			a.store.ClearActive(v)
			if a.run != nil {
				delete(a.run.active, v)
			}
		}
	}

	if sketchOnly {
		for _, v := range rerouted {
			if a.store.HasVertex(v) {
				a.registerSplit(v, gate)
			}
		}
	} else {
		a.refreshRegistrations(gate)
	}

	// Vote once all shipments are acknowledged.
	a.voteWhenDrained(gate, func() {
		a.sendReady(epochLow, wire.PhaseMigrate, 0)
	})
}

// rerouteMail forwards one pending mailbox entry to a replica of its
// vertex when this agent no longer is one, and kills it in t. The entry is
// already an aggregate, so it travels as one (b.send, not flush) and the
// receiver merges it.
func (a *Agent) rerouteMail(b *msgBatcher, t *aggTable, s *aggSlot) {
	v := s.key
	if a.isReplicaOf(v) {
		return
	}
	dst, ok := a.router.AnyReplica(v, a.id)
	if !ok || dst == consistent.AgentID(a.id) {
		a.trace("migrate-reroute-kept v=%d step=%d", v, b.step)
		return
	}
	a.trace("migrate-reroute v=%d step=%d to=%d", v, b.step, dst)
	at, _ := a.router.MemberIndex(dst) // a replica is always a member
	if prog := a.prog(); prog != nil {
		// fold covers the raw buffer too; one entry suffices.
		b.dstBufs.add(at, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(t.fold(prog, s))})
	} else {
		for _, rawVal := range t.raw[v] {
			b.dstBufs.add(at, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(rawVal)})
		}
	}
	t.kill(s)
}

// voteWhenDrained invokes vote once the gate is empty. For non-empty
// gates the vote fires from onAck via the pendingVotes list.
func (a *Agent) voteWhenDrained(gate *ackGroup, vote func()) {
	if gate.pending == 0 {
		vote()
		return
	}
	a.pendingVotes = append(a.pendingVotes, pendingVote{gate: gate, fire: vote})
}

type pendingVote struct {
	gate *ackGroup
	fire func()
}

// refreshRegistrations announces this agent to the masters of the split
// vertices it holds, so masters pin them for counting and value updates.
func (a *Agent) refreshRegistrations(gate *ackGroup) {
	a.store.Vertices(func(v graph.VertexID) bool {
		a.registerSplit(v, gate)
		return true
	})
}

// registerSplit announces this agent to v's master if v is split, not
// mastered here, and not announced yet.
func (a *Agent) registerSplit(v graph.VertexID, gate *ackGroup) {
	if !a.router.Split(v) || a.registered[v] {
		return
	}
	master, ok := a.router.Master(v)
	if !ok || master == consistent.AgentID(a.id) {
		return
	}
	if addr, ok := a.router.AddrOf(master); ok {
		a.registered[v] = true
		a.sendGatedFrame(addr, wire.AppendReplicaRegister(
			a.node.NewFrame(wire.TReplicaRegister), &wire.ReplicaRegister{
				Vertex: v, AgentID: a.id,
			}), gate)
	}
}

// handleEdges processes an edge batch: migrations apply immediately;
// stream changes apply when idle and buffer during a run. It reports
// whether pkt was retained (as a deferred-ack origin).
func (a *Agent) handleEdges(pkt *wire.Packet) bool {
	// Scratch decode: applyChanges and the buffer path copy every change
	// out before the next packet reuses the batch.
	batch := &a.scratchEB
	if err := wire.DecodeEdgeBatchInto(batch, pkt.Payload); err != nil {
		a.node.Ack(pkt)
		return false
	}
	if batch.Migration {
		states := make(map[graph.VertexID]wire.VertexState, len(batch.States))
		for _, st := range batch.States {
			states[st.Vertex] = st
		}
		g := &ackGroup{origin: pkt}
		a.applyChanges(batch.Changes, true, g, states)
		a.sealGroup(g)
		return true
	}
	if a.run != nil {
		// Batch running: buffer (§3.4). The ack means "durably held".
		a.buffered = append(a.buffered, batch.Changes...)
		a.node.Ack(pkt)
		return false
	}
	g := &ackGroup{origin: pkt}
	a.applyChanges(batch.Changes, false, g, nil)
	a.sealGroup(g)
	return true
}

// keyedVertex returns the vertex a copy is stored under.
func keyedVertex(c wire.EdgeChange) graph.VertexID {
	if c.Dir == graph.In {
		return c.Dst
	}
	return c.Src
}

// applyChanges validates and applies routed edge-change copies. Misplaced
// copies are forwarded with deferred acknowledgement — including, for
// migrations, the vertex state of the forwarded copies, so state always
// travels with the copies it belongs to. Applied stream inserts feed the
// local sketch delta: the Out-copy owner counts the source endpoint, the
// In-copy owner the destination, so each endpoint of each inserted edge is
// counted exactly once cluster-wide.
func (a *Agent) applyChanges(changes []wire.EdgeChange, migration bool, g *ackGroup, states map[graph.VertexID]wire.VertexState) {
	self := consistent.AgentID(a.id)
	type shipment struct {
		changes []wire.EdgeChange
		states  map[graph.VertexID]wire.VertexState
	}
	var forwards map[consistent.AgentID]*shipment
	for _, c := range changes {
		owner, ok := a.router.CopyOwner(c)
		if ok && owner != self {
			if forwards == nil {
				forwards = make(map[consistent.AgentID]*shipment)
			}
			s := forwards[owner]
			if s == nil {
				s = &shipment{states: make(map[graph.VertexID]wire.VertexState)}
				forwards[owner] = s
			}
			s.changes = append(s.changes, c)
			a.trace("edges-forward copy=(%d,%d,%d) to=%d mig=%v", c.Src, c.Dst, c.Dir, owner, migration)
			if st, okSt := states[keyedVertex(c)]; okSt {
				s.states[st.Vertex] = st
			}
			continue
		}
		var applied bool
		if migration {
			// Moves are topology-neutral: do not mark vertices active,
			// but install the accompanying state and preserved
			// activation for copies kept here.
			if c.Action == graph.Insert {
				applied = a.store.AddEdge(c.Src, c.Dst, c.Dir)
			} else {
				applied = a.store.RemoveEdge(c.Src, c.Dst, c.Dir)
			}
			if st, okSt := states[keyedVertex(c)]; okSt {
				if _, exists := a.values[st.Vertex]; !exists {
					a.values[st.Vertex] = algorithm.Word(st.State)
				}
				if st.Active {
					a.store.MarkActive(st.Vertex)
				}
			}
		} else {
			applied = a.store.Apply(graph.Change{Action: c.Action, Src: c.Src, Dst: c.Dst}, c.Dir)
			if applied && c.Action == graph.Insert {
				if c.Dir == graph.Out {
					a.skDelta.Add(uint64(c.Src))
				} else {
					a.skDelta.Add(uint64(c.Dst))
				}
			}
		}
		if applied {
			atomic.AddUint64(&a.statApplied, 1)
		}
		a.trace("edges-apply copy=(%d,%d,%d) mig=%v applied=%v", c.Src, c.Dst, c.Dir, migration, applied)
	}
	for owner, s := range forwards {
		if addr, ok := a.router.AddrOf(owner); ok {
			atomic.AddUint64(&a.statForwarded, uint64(len(s.changes)))
			stList := make([]wire.VertexState, 0, len(s.states))
			for _, st := range s.states {
				stList = append(stList, st)
			}
			a.sendGatedFrame(addr, wire.AppendEdgeBatch(
				a.node.NewFrameHint(wire.TEdges, 32+32*len(s.changes)+24*len(stList)),
				&wire.EdgeBatch{
					Epoch: a.router.Epoch(), Migration: migration,
					Changes: s.changes, States: stList,
				}), g)
		}
	}
}

// flushBuffered applies changes buffered during a run.
func (a *Agent) flushBuffered() {
	if len(a.buffered) == 0 {
		return
	}
	changes := a.buffered
	a.buffered = nil
	g := &ackGroup{}
	a.applyChanges(changes, false, g, nil)
}

// handleBatchOpen is the batch-boundary round (PhaseBatch): apply
// buffered changes, flush the sketch delta to the coordinator, register
// newly held split vertices, and report the local master count.
func (a *Agent) handleBatchOpen() {
	a.flushBuffered()
	// Metric collection (§3.4.3): graph change and client query volumes
	// since the previous batch boundary.
	_, applied, queries := a.Stats()
	a.sendMetric(autoscale.MetricChangeRate, float64(applied-a.lastApplied))
	a.sendMetric(autoscale.MetricQueryRate, float64(queries-a.lastQueries))
	a.lastApplied, a.lastQueries = applied, queries
	// The active set right after the flush IS the affected-vertex frontier
	// of this batch: exactly the locally stored endpoints whose topology
	// changed, which an incremental run (FromScratch=false) seeds from.
	frontier := a.store.ActiveCount()
	a.m.frontierSize.Observe(float64(frontier))
	a.sendMetric(autoscale.MetricFrontierSize, float64(frontier))
	a.sendMetric(autoscale.MetricBytesPerEdge, a.store.BytesPerEdge())
	gate := &ackGroup{}
	if a.skDelta.Count() > 0 {
		a.sendGatedFrame(a.coordAddr, a.skDelta.AppendBinary(
			a.node.NewFrameHint(wire.TSketchDelta, a.skDelta.SizeBytes())), gate)
		a.skDelta.Reset()
	}
	masters := a.walkFlips(gate)
	batchID := uint32(a.router.BatchID())
	a.voteWhenDrained(gate, func() {
		a.sendReady(batchID, wire.PhaseBatch, masters)
	})
	// Batch boundaries always checkpoint: the flush above folded the
	// buffered mutations in, so this is the freshest consistent topology
	// a restart could want.
	a.checkpointNow(true)
}
