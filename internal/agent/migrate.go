package agent

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync/atomic"

	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/transport"
	"elga/internal/wire"
)

// installView installs v in the router and, if it took, makes every vertex
// record's cached placement stale.
func (a *Agent) installView(v *wire.View) (bool, error) {
	changed, err := a.router.Update(v)
	if changed {
		a.verts.restamp()
	}
	return changed, err
}

// handleView installs a directory view and, if the epoch advanced, runs
// the migration round of §3.4.3: re-evaluate where held vertices' copies
// belong, ship the misplaced ones, and vote the round complete. A view that
// changed only the sketch re-evaluates just the vertices the router
// rerouted; a membership change re-evaluates every vertex.
func (a *Agent) handleView(v *wire.View) {
	changed, err := a.installView(v)
	if err != nil || !changed {
		return
	}
	defer a.replay(&a.early) // what beat this view here
	epoch := a.router.Epoch()
	if epoch <= a.migratedEpoch {
		return
	}
	a.migratedEpoch = epoch
	// A member holds stream changes until the round closes: a delete routed
	// under this view can beat the old owner's shipment of its copy here.
	// A leaver's forwards share the link with its shipments, so it forwards.
	a.migrating = a.router.IsMember(consistent.AgentID(a.id))
	// The router only knows vertices it was asked about since its last
	// wholesale install. Every such install is followed by the full round
	// below, which looks up each held vertex, and copies arriving later have
	// their vertex looked up before they are stored — so a sketch-only list
	// covers everything this agent holds.
	if rerouted, sketchOnly := a.router.Rerouted(); sketchOnly {
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
			a.tracer.DumpFlight(os.Stderr, "evicted")
		}
		a.leaving = true
	}
	// Reclaim unacknowledged sends toward peers that left the view and
	// re-route their contents under the new epoch. The gates those sends
	// fed stay held until the replacements complete, so barrier
	// accounting survives peer death without losing data.
	peers := make(map[string]bool, len(v.Agents))
	for _, m := range v.Agents {
		peers[m.Addr] = true
	}
	for _, addr := range sortedKeys(a.peers) {
		if !peers[addr] && addr != a.ep.Addr() {
			a.retirePeer(addr)
			a.departed = append(a.departed, addr)
		}
	}
	a.peers = peers
	a.migrate(uint32(epoch), nil, false)
}

// retirePeer retires the node's peer for addr, re-routing every
// unacknowledged send to it under the current view, and drops the slots
// cached for its frames.
func (a *Agent) retirePeer(addr string) {
	delete(a.verts.peers, addr)
	for _, f := range a.ep.CancelPeer(addr) {
		a.rerouteFailed(f)
	}
}

// rerouteFailed re-dispatches one reclaimed in-flight send under the
// current view. Vertex messages re-resolve their owner, edge shipments
// re-apply (forwarding misplaced copies and runs), and replica partials
// chase their vertices' new masters, record by record. Everything re-sent
// funnels through a fresh gate whose drain releases the original request,
// keeping the phase gates the failed send fed correctly held in the
// meantime. Types with no surviving destination — value updates to the dead
// replica, registrations (re-announced after the registered reset) — are
// dropped.
func (a *Agent) rerouteFailed(f transport.FailedSend) {
	pkt := wire.GetPacket()
	if err := wire.UnmarshalPacketInto(pkt, f.Frame, nil); err != nil {
		wire.ReleasePacket(pkt)
		a.onAck(f.Req)
		return
	}
	g := &ackGroup{}
	switch pkt.Type {
	case wire.TVertexMsgs:
		batch := &a.scratchVMB
		if err := wire.DecodeVertexMsgBatchInto(batch, pkt.Payload); err == nil && !batch.Async {
			s := a.sink()
			a.acceptAggs(s, batch.Step, batch.Msgs, "")
			a.sendBufs(s, batch.Step, g)
		}
	case wire.TEdges:
		batch := &a.scratchEB
		if err := wire.DecodeEdgeBatchInto(batch, pkt.Payload); err == nil {
			if batch.Migration {
				a.applyRuns(batch.Runs, g, stateIndex(batch.States))
			} else {
				a.applyChanges(batch.Changes, g)
			}
		}
	case wire.TReplicaPartial:
		a.takePartials(pkt.Payload)
		a.sendHubFrames(a.hubPartials, g)
	}
	wire.ReleasePacket(pkt)
	g.then(func() { a.onAck(f.Req) })
}

// migrationShipment accumulates the runs and states headed to one agent.
// nbrs backs the runs' neighbour lists: it is made shipChunk long and the
// shipment is sent before a run would overflow it, so appending never moves
// it from under the runs.
type migrationShipment struct {
	runs   []wire.EdgeRun
	nbrs   []graph.VertexID
	states []wire.VertexState
}

// migScratch is the reusable memory of one shipper of runs — the migration
// round has one, forwarding misplaced runs another, so neither can flush the
// other's half-filled shipments: one shipment and one sub-run per member
// (indexed like router.Agents()), a vertex's neighbours as its cursor yields
// them, the neighbours a split vertex ships, and the wire bytes shipped.
type migScratch struct {
	ships []migrationShipment
	sub   [][]graph.VertexID
	nbrs  []graph.VertexID
	left  []graph.VertexID
	bytes uint64
}

// fit gives the scratch a shipment and a sub-run for each of n members.
func (m *migScratch) fit(n int) {
	for len(m.ships) < n {
		m.ships = append(m.ships, migrationShipment{})
	}
	for len(m.sub) < n {
		m.sub = append(m.sub, nil)
	}
}

// trim lets go of buffers a hub grew; the next vertex needs far less.
func (m *migScratch) trim() {
	if cap(m.nbrs) > shipChunk || cap(m.left) > shipChunk {
		m.nbrs, m.left, m.sub = nil, nil, nil
	}
}

// shipChunk is the size, in copies, at which a shipment is sent and its
// buffer reused: about one 8 KiB frame. It bounds a round's scratch however
// much moves, and lets the receiver store while the sender still walks. A
// longer run travels alone, whole up to maxShipRun.
const shipChunk = 1024

// maxShipRun caps the copies one frame carries of one run: a longer run
// travels as consecutive ascending pieces this long, each in a frame of its
// own. It holds a frame, and the copy the transport keeps until it is
// acknowledged, to about 512 KiB whatever the hub, far under the wire's frame
// limit. The receiver seals the first piece and merges the rest.
const maxShipRun = 64 * shipChunk

// migrate re-evaluates held vertices under the current view, ships the
// misplaced copies (with vertex state and pending mail),
// refreshes replica registrations, and votes Ready(PhaseMigrate) once all
// shipments are acknowledged. With sketchOnly set, only the rerouted
// vertices can have moved, so only their copies, mail and registrations
// are looked at; otherwise everything held is.
func (a *Agent) migrate(epochLow uint32, rerouted []graph.VertexID, sketchOnly bool) {
	defer a.tracer.StartRoot("migrate", 0).End()
	members := a.router.Agents()
	a.mig.fit(len(members))
	// Migration runs its own gate; the run's phase gate (owned by
	// handleAdvance) stays untouched so a mid-phase view change cannot
	// clobber in-progress barrier accounting. A shipped copy has left the
	// store; the receiver owns it once the send is acknowledged, and the
	// gate holds our vote until then.
	gate := &ackGroup{}
	if a.leaving {
		// The increments of a batch not yet sealed would leave with us.
		a.sendSketchDelta(gate)
	}
	a.mig.bytes = 0
	selfAt := a.selfIndex()
	if sketchOnly {
		for _, v := range rerouted {
			a.migrateVertex(v, selfAt, gate)
		}
	} else {
		// The walk may drop the vertex it is visiting and nothing else; the
		// bulk edits never compact, which would rebuild the set under it.
		a.store.Vertices(func(v graph.VertexID) bool {
			a.migrateVertex(v, selfAt, gate)
			return true
		})
	}
	a.store.MaybeCompact()
	for at := range members {
		a.sendShipment(&a.mig, gate, at)
	}
	shippedBytes := a.mig.bytes
	a.mig.trim()
	if shippedBytes > 0 {
		a.m.migBytes.Add(shippedBytes)
		// The directory sees migration cost too: heavy shipments are the
		// scale-decision backpressure §3.4.3 warns about.
		a.samples = append(a.samples, wire.Metric{Name: autoscale.MetricMigrationBytes, Value: float64(shippedBytes)})
		a.shipReport()
	}

	a.rerouteMail(rerouted, sketchOnly, gate)
	// Pending partials whose mastership moved are re-shipped during
	// the combine phase (processCombine handles stale masters).

	// Mastership moves with the membership, and with a vertex's replica
	// count: drop the pins owed to neither, and announce what is held here
	// afresh (the walk above already withdrew what left).
	a.releasePins()
	if sketchOnly {
		for _, v := range rerouted {
			if i := a.verts.find(v); i >= 0 {
				a.verts.slots[i].flags &^= recRegistered
			}
			if a.store.HasVertex(v) {
				a.registerSplit(v, gate)
			}
		}
	} else {
		a.verts.drop(recRegistered)
		if a.router.CanSplit() { // else no vertex is split: nothing to announce
			a.refreshRegistrations(gate)
		}
	}

	// Vote once all shipments are acknowledged. Connections are FIFO, so
	// whatever the agents shipped to had for this one is stored by then: the
	// round is over here, and what it left in the tail is folded before the
	// vote lets it close.
	gate.then(func() {
		a.store.Settle()
		a.sendReady(wire.Ready{Step: epochLow, Phase: wire.PhaseMigrate})
	})
}

// sortedKeys returns m's keys in ascending order, for walks that send or
// edit in key order, not in the map's.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// selfIndex is this agent's position in router.Agents(), or -1 once the
// view no longer lists it.
func (a *Agent) selfIndex() int {
	if at, ok := a.router.MemberIndex(consistent.AgentID(a.id)); ok {
		return at
	}
	return -1
}

// shipRun adds run r to m's shipment for the member at position at, sent
// under g, with the state of r's key (if any) ahead of its first run there,
// so every frame carries the state of every vertex it carries copies of. A
// run that would overflow the shipment goes in the next; one longer than
// shipChunk goes alone, straight from r.Nbrs, and one longer than maxShipRun
// as pieces that long.
func (a *Agent) shipRun(m *migScratch, g *ackGroup, at int, r wire.EdgeRun, st *wire.VertexState) {
	for len(r.Nbrs) > maxShipRun {
		a.shipRun(m, g, at, wire.EdgeRun{Key: r.Key, Dir: r.Dir, Nbrs: r.Nbrs[:maxShipRun]}, st)
		r.Nbrs = r.Nbrs[maxShipRun:]
	}
	s := &m.ships[at]
	if len(s.nbrs)+len(r.Nbrs) > shipChunk {
		a.sendShipment(m, g, at)
	}
	if st != nil && (len(s.states) == 0 || s.states[len(s.states)-1].Vertex != st.Vertex) {
		s.states = append(s.states, *st)
	}
	if len(r.Nbrs) > shipChunk {
		s.runs = append(s.runs, r)
		a.sendShipment(m, g, at)
		return
	}
	if s.nbrs == nil {
		s.nbrs = make([]graph.VertexID, 0, shipChunk)
	}
	from := len(s.nbrs)
	s.nbrs = append(s.nbrs, r.Nbrs...)
	s.runs = append(s.runs, wire.EdgeRun{Key: r.Key, Dir: r.Dir, Nbrs: s.nbrs[from:]})
}

// sendShipment sends what m has accumulated for the member at position at
// under g and empties the buffer for reuse. The runs in it have left the
// store, or are about to, so a frame the node refuses would lose them: that
// fails the agent, unless the node is closing anyway.
func (a *Agent) sendShipment(m *migScratch, g *ackGroup, at int) {
	s := &m.ships[at]
	if len(s.runs) == 0 {
		return
	}
	if addr, ok := a.router.AddrOf(a.router.Agents()[at]); ok {
		copies := 0
		for _, r := range s.runs {
			copies += len(r.Nbrs)
		}
		// 8 bytes a copy, 13 a run, 17 a state, and the batch's own.
		frame := wire.AppendEdgeBatch(
			a.ep.NewFrameHint(wire.TEdges, 8*copies+13*len(s.runs)+17*len(s.states)+32),
			&wire.EdgeBatch{
				Epoch: a.router.Epoch(), Migration: true, Runs: s.runs, States: s.states,
			})
		a.m.migBatch.Observe(float64(copies))
		m.bytes += uint64(len(frame))
		if err := a.sendGatedFrame(addr, frame, g); err != nil && !errors.Is(err, transport.ErrNodeClosed) {
			panic(fmt.Sprintf("agent %d: migration frame of %d copies to %s refused: %v", a.id, copies, addr, err))
		}
	}
	clear(s.runs) // a lone run may point into the store
	s.runs, s.nbrs, s.states = s.runs[:0], s.nbrs[:0], s.states[:0]
}

// heldRun returns v's neighbours in direction dir: its sealed run when no
// tail edit touches it, else what a cursor yields, in a.mig.nbrs.
func (a *Agent) heldRun(v graph.VertexID, dir graph.Dir) []graph.VertexID {
	var runs graph.VertexRuns
	if a.store.RunsInto(&runs, v); runs.Whole[dir] {
		return runs.Run[dir]
	}
	var it graph.Cursor
	if dir == graph.Out {
		a.store.OutCursorInto(&it, v)
	} else {
		a.store.InCursorInto(&it, v)
	}
	nbrs := a.mig.nbrs[:0]
	for u, more := it.Next(); more; u, more = it.Next() {
		nbrs = append(nbrs, u)
	}
	a.mig.nbrs = nbrs
	return nbrs
}

// splitRun groups the ascending neighbours of run r, whose key is split, by
// the replica that owns each copy, ships every group but this agent's
// through m under g as one ascending sub-run, and returns this agent's group
// and the neighbours shipped, both ascending.
func (a *Agent) splitRun(m *migScratch, g *ackGroup, replicas []int32, selfAt int, r wire.EdgeRun, st *wire.VertexState) (kept, shipped []graph.VertexID) {
	sub := m.sub
	for at := range sub {
		sub[at] = sub[at][:0]
	}
	shipped = m.left[:0]
	for _, w := range r.Nbrs {
		at := a.router.ReplicaFor(replicas, w)
		sub[at] = append(sub[at], w)
		if at != selfAt {
			shipped = append(shipped, w)
		}
	}
	m.left = shipped
	for at, nbrs := range sub {
		if at != selfAt && len(nbrs) > 0 {
			a.shipRun(m, g, at, wire.EdgeRun{Key: r.Key, Dir: r.Dir, Nbrs: nbrs}, st)
		}
	}
	if selfAt >= 0 {
		kept = sub[selfAt]
	}
	return kept, shipped
}

// migrateVertex resolves v's route once and moves the runs that belong
// elsewhere into their owners' shipments. All copies of an unsplit vertex
// share its owner (Figure 3's second-level hash only exists for k > 1), so
// it leaves whole: out run, in run, one state, one DropVertex. A split
// vertex's runs are grouped by replica, one sub-run per destination, and
// what left is removed with one RemoveRun per direction. The shipments are
// sent under gate.
func (a *Agent) migrateVertex(v graph.VertexID, selfAt int, gate *ackGroup) {
	if out, in := a.store.Degree(v); out+in == 0 {
		return
	}
	owner, replicas, ok := a.router.RouteIndex(v)
	if !ok || (replicas == nil && owner == selfAt) {
		return
	}
	var st *wire.VertexState
	if s, ok := a.vertexState(v); ok {
		st = &s
	}
	for _, dir := range [...]graph.Dir{graph.Out, graph.In} {
		run := wire.EdgeRun{Key: v, Dir: dir, Nbrs: a.heldRun(v, dir)}
		switch {
		case len(run.Nbrs) == 0:
		case replicas == nil:
			a.shipRun(&a.mig, gate, owner, run, st)
		default:
			if _, shipped := a.splitRun(&a.mig, gate, replicas, selfAt, run, st); len(shipped) > 0 {
				a.store.RemoveRun(v, dir, shipped)
			}
		}
	}
	if replicas == nil {
		a.store.DropVertex(v)
	}
	if !a.store.HasVertex(v) {
		// Gone from here; state and activity went with the copies.
		a.deregisterSplit(v, gate)
		a.verts.del(v)
		a.store.ClearActive(v)
	}
}

// rerouteMail re-routes the pending mail of every vertex this agent is no
// longer a replica of (mid-run elasticity: messages follow the copies) —
// with sketchOnly, of the rerouted vertices alone — to a replica of it, under
// gate, step by step. A slot entry is an aggregate already, so it travels as
// one (sendBufs, no fold) and the receiver merges it. This must work before
// the agent has a run context — a mid-run joiner only learns the run at
// resume, after migrations, and acks the mail it took meanwhile at once — so
// an aggregate that arrived with no run installed is resent as it came.
func (a *Agent) rerouteMail(rerouted []graph.VertexID, sketchOnly bool, gate *ackGroup) {
	t := &a.verts
	var steps []uint32
	for k := range t.mail {
		if m := &t.mail[k]; len(m.order) > 0 {
			steps = append(steps, m.step)
		}
	}
	for _, e := range a.prerun {
		steps = append(steps, e.step)
	}
	slices.Sort(steps)
	for _, step := range slices.Compact(steps) {
		out := a.sink()
		if m := &t.mail[step&1]; m.step == step && len(m.order) > 0 {
			leave := func(i uint32) {
				if v := t.slots[i].key; a.placement(i)&viewReplica == 0 && a.sendAway(out, v, m.agg[i]) {
					m.has[i/64] &^= 1 << (i % 64)
				}
			}
			if sketchOnly {
				for _, v := range rerouted {
					if i := t.find(v); i >= 0 && m.holds(uint32(i)) {
						leave(uint32(i))
					}
				}
			} else {
				for _, i := range m.order {
					leave(i)
				}
			}
			m.order = slices.DeleteFunc(m.order, func(i uint32) bool { return !m.holds(i) })
		}
		a.prerun = slices.DeleteFunc(a.prerun, func(e stepMsg) bool {
			return e.step == step && !a.isReplicaOf(e.msg.Target) && a.sendAway(out, e.msg.Target, algorithm.Word(e.msg.Value))
		})
		a.sendBufs(out, step, gate)
	}
}

// sendAway buffers agg, pending mail for v, in out for one of v's replicas,
// reporting whether some replica other than this agent takes it.
func (a *Agent) sendAway(out *computeShard, v graph.VertexID, agg algorithm.Word) bool {
	dst, ok := a.router.AnyReplica(v, a.id)
	if !ok || dst == consistent.AgentID(a.id) {
		return false
	}
	at, _ := a.router.MemberIndex(dst) // a replica is always a member
	out.add(at, wire.VertexMsg{Target: v, Via: v, Value: wire.Word(agg)})
	return true
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
	if !a.router.Split(v) || a.verts.flag(v, recRegistered) {
		return
	}
	if a.sendRegister(v, false, gate) {
		a.verts.slots[a.verts.at(v)].flags |= recRegistered
	}
}

// deregisterSplit withdraws registerSplit's announcement once v has left
// this agent's store, so its master stops pinning it for a copy that is
// gone (handleRegister).
func (a *Agent) deregisterSplit(v graph.VertexID, gate *ackGroup) {
	i := a.verts.find(v)
	if i < 0 || a.verts.slots[i].flags&recRegistered == 0 {
		return
	}
	a.verts.slots[i].flags &^= recRegistered
	a.sendRegister(v, true, gate)
}

// sendRegister sends v's master a (de)registration of this agent, unless
// this agent is the master; it reports whether it sent one.
func (a *Agent) sendRegister(v graph.VertexID, deregister bool, gate *ackGroup) bool {
	master, ok := a.router.Master(v)
	if !ok || master == consistent.AgentID(a.id) {
		return false
	}
	addr, ok := a.router.AddrOf(master)
	if ok {
		a.sendGatedFrame(addr, wire.AppendReplicaRegister(
			a.ep.NewFrame(wire.TReplicaRegister), &wire.ReplicaRegister{
				Vertex: v, AgentID: a.id, Deregister: deregister,
			}), gate)
	}
	return ok
}

// releasePins drops, once a view is installed, the pins this agent no
// longer owes as a master: every pin of a vertex it does not master as a
// split vertex any more, and the registrations of agents that are no longer
// among a vertex's replicas. It walks them in vertex order: an unpin can
// drop a record from the store, which reorders the store's vertex walk.
func (a *Agent) releasePins() {
	for _, v := range sortedKeys(a.pins) {
		regs := a.pins[v]
		if a.router.Split(v) && a.isMaster(v) {
			regs = slices.DeleteFunc(regs, func(id uint64) bool {
				return !a.router.IsReplica(v, consistent.AgentID(id))
			})
			if len(regs) > 0 {
				a.pins[v] = regs
				continue
			}
		}
		delete(a.pins, v)
		a.store.Unpin(v)
	}
}

// handleEdges processes an edge batch: migrations apply immediately;
// stream changes apply when idle and buffer during a run. It reports
// whether pkt was retained (as a deferred-ack origin).
func (a *Agent) handleEdges(pkt *wire.Packet) bool {
	// Scratch decode: applyRuns, applyChanges and the buffer path copy
	// every run and change out before the next packet reuses the batch.
	batch := &a.scratchEB
	if err := wire.DecodeEdgeBatchInto(batch, pkt.Payload); err != nil {
		a.ep.Ack(pkt)
		return false
	}
	if batch.Migration {
		if batch.Epoch > a.router.Epoch() {
			// Sent under a view this agent has yet to install: judged under
			// the older one the copies would bounce back. They wait for it
			// (handleView replays them), the ack withheld so the sender's
			// round stays open.
			a.early = append(a.early, pkt)
			return true
		}
		g := &ackGroup{}
		a.applyRuns(batch.Runs, g, stateIndex(batch.States))
		a.ackWhenDrained(g, pkt)
		return true
	}
	if a.holding() {
		// Batch running (§3.4), or a migration round open: buffer. The ack
		// means "durably held".
		a.buffered = append(a.buffered, batch.Changes...)
		a.ep.Ack(pkt)
		return false
	}
	g := &ackGroup{}
	a.applyChanges(batch.Changes, g)
	a.ackWhenDrained(g, pkt)
	return true
}

// stateIndex keys the states a migration batch carries by vertex; a batch
// that carries none gets the nil map, which reads the same.
func stateIndex(states []wire.VertexState) map[graph.VertexID]wire.VertexState {
	if len(states) == 0 {
		return nil
	}
	m := make(map[graph.VertexID]wire.VertexState, len(states))
	for _, st := range states {
		m[st.Vertex] = st
	}
	return m
}

// keyedVertex returns the vertex a copy is stored under.
func keyedVertex(c wire.EdgeChange) graph.VertexID {
	if c.Dir == graph.In {
		return c.Dst
	}
	return c.Src
}

// applyChanges validates and applies routed stream-change copies one at a
// time, forwarding misplaced ones with deferred acknowledgement, one frame
// per owner in member order (fwdChanges holds them meanwhile). Applied
// inserts feed the local sketch delta: the Out-copy owner counts the source
// endpoint, the In-copy owner the destination, so each endpoint of each
// inserted edge is counted exactly once cluster-wide. A copy that makes a
// split vertex appear here, or the last one to leave, (de)registers this
// agent with the vertex's master under g, so the master's pin is settled
// before whatever waits on g — the sender's round, the streamer's flush — is
// over.
func (a *Agent) applyChanges(changes []wire.EdgeChange, g *ackGroup) {
	members, self := a.router.Agents(), a.selfIndex()
	for len(a.fwdChanges) < len(members) {
		a.fwdChanges = append(a.fwdChanges, nil)
	}
	forwards := a.fwdChanges[:len(members)]
	for _, c := range changes {
		owner, ok := a.router.CopyOwnerIndex(c)
		if ok && owner != self {
			forwards[owner] = append(forwards[owner], c)
			a.fwdDelete = a.fwdDelete || c.Action == graph.Delete
			continue
		}
		key := keyedVertex(c)
		if a.store.Apply(graph.Change{Action: c.Action, Src: c.Src, Dst: c.Dst}, c.Dir) {
			atomic.AddUint64(&a.statApplied, 1)
			if c.Action == graph.Insert {
				a.skDelta.Add(uint64(key))
				if out, in := a.store.Degree(key); out+in == 1 { // the first copy here
					a.registerSplit(key, g)
				}
			} else if !a.store.HasVertex(key) { // the last one
				a.deregisterSplit(key, g)
			}
		}
	}
	for owner, fw := range forwards {
		if len(fw) == 0 {
			continue
		}
		if addr, ok := a.router.AddrOf(members[owner]); ok {
			atomic.AddUint64(&a.statForwarded, uint64(len(fw)))
			a.sendGatedFrame(addr, wire.AppendEdgeBatch(
				a.ep.NewFrameHint(wire.TEdges, 32+17*len(fw)),
				&wire.EdgeBatch{Epoch: a.router.Epoch(), Changes: fw}), g)
		}
		forwards[owner] = fw[:0]
	}
}

// applyRuns stores the runs of a migration batch that belong here and
// forwards the rest, as runs, under g. One route lookup settles a run: an
// unsplit key's run is stored or forwarded whole, a split key's is grouped by
// replica (splitRun) and this agent's group stored. A stored run goes in
// with one AddRun, which seals it as it is when its direction was empty, and
// installs the state that came with it; a forwarded one takes that state
// along. Moves are topology-neutral: nothing is marked active but what the
// state says. The applied counter counts the copies the store did not
// already hold, the forwarded counter the copies sent on. Forwards go
// through their own scratch, a.fwd, not the migration round's.
func (a *Agent) applyRuns(runs []wire.EdgeRun, g *ackGroup, states map[graph.VertexID]wire.VertexState) {
	m := &a.fwd
	m.fit(a.router.NumAgents())
	selfAt := a.selfIndex()
	for _, r := range runs {
		var st *wire.VertexState
		if s, ok := states[r.Key]; ok {
			st = &s
		}
		kept := r.Nbrs
		switch owner, replicas, ok := a.router.RouteIndex(r.Key); {
		case !ok || (replicas == nil && owner == selfAt):
		case replicas == nil:
			a.shipRun(m, g, owner, r, st)
			kept = nil
		default:
			kept, _ = a.splitRun(m, g, replicas, selfAt, r, st)
		}
		atomic.AddUint64(&a.statForwarded, uint64(len(r.Nbrs)-len(kept)))
		if len(kept) == 0 {
			continue
		}
		atomic.AddUint64(&a.statApplied, uint64(a.store.AddRun(r.Key, r.Dir, kept)))
		a.installState(st)
		a.registerSplit(r.Key, g)
	}
	for at := range a.router.Agents() {
		a.sendShipment(m, g, at)
	}
	m.trim()
	a.store.MaybeCompact() // the runs went in without compacting
}

// vertexState is what v carries when it migrates or is checkpointed: its
// value and its activation. A vertex a batch inserted has no value until a
// run reaches it, and travels for its activation alone (NoValue); ok is false
// when there is neither.
func (a *Agent) vertexState(v graph.VertexID) (st wire.VertexState, ok bool) {
	w, has := a.verts.get(v)
	active := a.isActive(v)
	return wire.VertexState{Vertex: v, State: wire.Word(w), Active: active, NoValue: !has}, has || active
}

// installState installs the state and preserved activation that travelled
// with a vertex's migrated copies or came back from a checkpoint, if any:
// the value unless the vertex has none or already has one here.
func (a *Agent) installState(st *wire.VertexState) {
	if st == nil {
		return
	}
	if !st.NoValue && !a.verts.flag(st.Vertex, recValue) {
		a.verts.set(st.Vertex, algorithm.Word(st.State))
	}
	if st.Active {
		a.store.MarkActive(st.Vertex)
	}
}

// holding reports whether stream changes wait in the buffer: a run is
// installed, or this agent's migration round is open. Every sender votes that
// round only after its shipments are acknowledged, so once it closes every
// copy shipped here is stored, and a delete applied then finds its copy.
func (a *Agent) holding() bool { return a.run != nil || a.migrating }

// releaseBuffered applies the buffered changes once nothing holds them.
func (a *Agent) releaseBuffered() {
	if !a.holding() {
		a.flushBuffered(&ackGroup{})
	}
}

// flushBuffered applies the buffered changes, what they send feeding gate.
func (a *Agent) flushBuffered(gate *ackGroup) {
	if len(a.buffered) == 0 {
		return
	}
	changes := a.buffered
	a.buffered = nil
	a.applyChanges(changes, gate)
}

// sendSketchDelta sends the coordinator the sketch increments applied since
// the last send, if any, under gate.
func (a *Agent) sendSketchDelta(gate *ackGroup) {
	if a.skDelta.Count() == 0 {
		return
	}
	a.sendGatedFrame(a.coordAddr, a.skDelta.AppendBinary(
		a.ep.NewFrameHint(wire.TSketchDelta, a.skDelta.SizeBytes())), gate)
	a.skDelta.Reset()
}

// handleBatchOpen is the batch-boundary round (PhaseBatch) of the given
// batch: apply buffered changes, flush the sketch delta to the coordinator,
// and report the local master count.
func (a *Agent) handleBatchOpen(batch uint32) {
	gate := &ackGroup{}
	a.flushBuffered(gate)
	// Metric collection (§3.4.3): graph change and client query volumes
	// since the previous batch boundary, and the frontier — the active set
	// right after the flush IS the affected-vertex frontier of this batch:
	// exactly the locally stored endpoints whose topology changed, which
	// an incremental run (FromScratch=false) seeds from.
	_, applied, queries := a.Stats()
	frontier := a.store.ActiveCount()
	a.m.frontierSize.Observe(float64(frontier))
	a.samples = append(a.samples,
		wire.Metric{Name: autoscale.MetricChangeRate, Value: float64(applied - a.lastApplied)},
		wire.Metric{Name: autoscale.MetricQueryRate, Value: float64(queries - a.lastQueries)},
		wire.Metric{Name: autoscale.MetricFrontierSize, Value: float64(frontier)},
		wire.Metric{Name: autoscale.MetricBytesPerEdge, Value: a.store.BytesPerEdge()})
	a.lastApplied, a.lastQueries = applied, queries
	a.shipReport()
	// A batch that inserted a sixteenth of what the store holds (the
	// fraction Settle uses) leaves a tail worth folding before the reads
	// that follow; a small one leaves it to the store's own rule.
	bulk := 16*a.skDelta.Count() >= uint64(a.store.NumEdgeCopies())
	a.sendSketchDelta(gate)
	masters := a.walkFlips()
	// A delete forwarded to its owner may land after the owner's vote, so
	// it counts here as well.
	deleted := a.store.TakeDeleted() || a.fwdDelete
	a.fwdDelete = false
	gate.then(func() {
		if bulk {
			a.store.Fold()
		}
		a.sendReady(wire.Ready{Step: batch, Phase: wire.PhaseBatch, Masters: masters, Deleted: deleted})
	})
	// Batch boundaries always checkpoint: the flush above folded the
	// buffered mutations in, so this is the freshest consistent topology
	// a restart could want.
	a.checkpointNow(true)
}
