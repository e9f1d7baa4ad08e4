package agent

import (
	"slices"
	"unsafe"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// The compute and combine phases run on the event loop, as every handler
// does (§3.1): the agent walks the phase's work list and, as each vertex is
// processed, writes its state and active mark in place, stashes or buffers
// its replica partial and buffers its value updates. Only the messages it
// scatters wait, in the agent's one shard, until the walk ends (flushPhase):
// gathering a self-addressed message can add a vertex record and move the
// table, and the walk reads that table by slot.

// Phase scratch is emptied in place and kept while runs use it: at a run's
// end (trimScratch), n elements of size bytes go if n*size > scratchFloor and
// n > scratchSlack*used, used being the most the run held in them.
const scratchFloor, scratchSlack = 16 << 10, 4

func keepScratch(n, size, used int) bool { return n*size <= scratchFloor || n <= scratchSlack*used }

// trimmed returns s emptied, or nil if it goes.
func trimmed[T any](s []T, used int) []T {
	if keepScratch(cap(s), int(unsafe.Sizeof(*new(T))), used) {
		return s[:0]
	}
	return nil
}

// dstBufs buffers messages per destination agent in a slice indexed like
// the router's member list, so buffering one message is an append and no
// map operation. members names the agent behind each index for whoever drains
// them, and peak is the longest a buffer grew since the last trim.
type dstBufs struct {
	members []consistent.AgentID
	bufs    [][]wire.VertexMsg
	peak    int
}

// bind points the (empty) buffers at the installed view's member list. Its
// holder calls it on every hand-out, which is what re-sizes the buffers
// after a membership change: views install between handlers, never while
// a sink is in use.
func (d *dstBufs) bind(members []consistent.AgentID) {
	d.members = members
	for len(d.bufs) < len(members) {
		d.bufs = append(d.bufs, nil)
	}
}

func (d *dstBufs) add(dst int, m wire.VertexMsg) {
	d.bufs[dst] = append(d.bufs[dst], m)
}

// empty empties buffer i, noting how long it grew.
func (d *dstBufs) empty(i int) { d.peak, d.bufs[i] = max(d.peak, len(d.bufs[i])), d.bufs[i][:0] }

// trim ends a run: the buffers past the view's n members go, and those the
// run did not need.
func (d *dstBufs) trim(n int) {
	d.bufs = slices.Delete(d.bufs, min(n, len(d.bufs)), len(d.bufs))
	for i := range d.bufs {
		d.bufs[i] = trimmed(d.bufs[i], d.peak)
	}
	d.peak = 0
}

// computeShard is the agent's one scatter sink (Agent.shard): a phase's
// walk, a sequential scatter, a forward or an async handler fills it, one at
// a time, and leaves it empty (deliver, sendBufs, flushAsync or reset). A
// phase also sums its counters here until flushPhase adds them to the run.
// The buffers keep their capacity across phases.
type computeShard struct {
	residual   float64
	activeNext uint64
	covered    int // active work vertices the dense plan folds for
	splitWork  bool

	// Scattered messages buffer per destination agent, each addressed by
	// its position in the router's member list (route.EdgeOwnerIndex),
	// self included.
	dstBufs
}

func (s *computeShard) reset() {
	s.residual = 0
	s.activeNext, s.covered = 0, 0
	s.splitWork = false
	for i := range s.bufs {
		s.empty(i)
	}
}

// sink hands out the agent's shard, bound to the installed view.
func (a *Agent) sink() *computeShard {
	s := &a.shard
	s.bind(a.router.Agents())
	return s
}

// peekValue returns the algorithm state of the vertex whose record is at
// slot i, its initial state if it has none, without installing it.
func (a *Agent) peekValue(i uint32) algorithm.Word {
	rec := &a.verts.slots[i]
	if rec.flags&recValue != 0 {
		return rec.value
	}
	return a.initValue(rec.key)
}

// placement returns the view answers (viewSplit, viewReplica) of the vertex
// whose record is at slot i under the installed view, asking the router only
// when the record's view stamp is stale.
func (a *Agent) placement(i uint32) uint16 {
	t := &a.verts
	rec := &t.slots[i]
	if rec.view&^viewAnswers != t.view {
		rec.view = t.view
		split, replica := a.router.Placement(rec.key, consistent.AgentID(a.id))
		if split {
			rec.view |= viewSplit
		}
		if replica {
			rec.view |= viewReplica
		}
	}
	return rec.view & viewAnswers
}

// computeVertex runs the compute-phase duty for the work vertex at slot i,
// its aggregate read from the step's mail by slot: replica-partial
// forwarding for split vertices, or the full gather → update → scatter cycle
// for locally owned ones, read from the store once. The run's final step
// scatters nothing.
func (a *Agent) computeVertex(s *computeShard, i uint32, mail *slotMail, self consistent.AgentID) {
	r, t := a.run, &a.verts
	v := t.slots[i].key
	agg, have := r.prog.ZeroAgg(), false
	if mail.holds(i) {
		agg, have = mail.agg[i], true
	}
	if a.placement(i)&viewSplit != 0 {
		s.splitWork = true
		// Replica duty: forward the local partial to the master.
		out, _ := a.store.Degree(v)
		master, ok := a.router.Master(v)
		if !ok {
			return
		}
		if master == self {
			a.stashPartial(r.step, v, agg, have, uint64(out))
		} else if at, ok := a.router.MemberIndex(master); ok {
			a.bufferPartial(at, &wire.ReplicaPartial{
				Step: r.step, Vertex: v, Agg: wire.Word(agg), HaveMsgs: have, LocalOutDeg: uint64(out),
			})
		}
		return
	}
	// Non-split vertex: the full gather→update→scatter cycle.
	old := a.peekValue(i)
	nw, act := r.prog.Update(v, old, agg, have, &r.ctx)
	t.setAt(i, nw)
	s.residual += r.prog.Residual(old, nw)
	if !act {
		return
	}
	t.mark(setActive, i)
	s.activeNext++
	if a.dense.covers(i) {
		s.covered++
		return
	}
	if r.final() {
		return
	}
	var runs graph.VertexRuns
	a.store.RunsInto(&runs, v)
	mv := r.prog.MessageValue(v, nw, uint64(runs.Deg[graph.Out]), &r.ctx)
	a.scatterRuns(s, v, mv, &runs)
}

// combineVertex runs the combine-phase master duty for the split vertex at
// slot i, its replicas' partials folded into p: update state, scatter the
// local out-copies, and queue the authoritative value for the other
// replicas. In the run's final step nobody scatters: the replicas only
// install it.
func (a *Agent) combineVertex(s *computeShard, i uint32, p partialEntry, self consistent.AgentID) {
	r, t := a.run, &a.verts
	v := t.slots[i].key
	m, ok := a.router.Master(v)
	if !ok {
		return
	}
	if m != self {
		// A view change moved mastership; the partial is re-sent as a
		// fresh partial to the new master.
		if at, ok := a.router.MemberIndex(m); ok {
			a.bufferPartial(at, &wire.ReplicaPartial{
				Step: r.step, Vertex: v, Agg: wire.Word(p.agg),
				HaveMsgs: p.have, LocalOutDeg: p.outDeg,
			})
		}
		return
	}
	old := a.peekValue(i)
	nw, act := r.prog.Update(v, old, p.agg, p.have, &r.ctx)
	t.setAt(i, nw)
	s.residual += r.prog.Residual(old, nw)
	if !act {
		return
	}
	t.mark(setActive, i)
	s.activeNext++
	scatter := !r.final()
	// Master scatters its own out-copies...
	if scatter {
		a.scatter(s, v, r.prog.MessageValue(v, nw, p.outDeg, &r.ctx))
	}
	// ...and ships the authoritative state to the other replicas, which
	// scatter their own copies (§3.4: "updates that are sent to their
	// replicas").
	vu := wire.ValueUpdate{
		Step: r.step, Vertex: v, State: wire.Word(nw),
		TotalOutDeg: p.outDeg, Scatter: scatter,
	}
	_, replicas, _ := a.router.RouteIndex(v)
	for _, at := range replicas {
		if s.members[at] != self {
			a.bufferUpdate(int(at), &vu)
		}
	}
}

// flushPhase ends a phase's walk: the shard's counters go to the run, a
// dense compute step folds (foldDense), the phase's hub records leave in one
// frame per peer and record type, and what the walk scattered is delivered
// for step, all under the phase gate. It reports whether the dense plan
// folded the step.
func (a *Agent) flushPhase(s *computeShard, step uint32, self consistent.AgentID) bool {
	r := a.run
	r.residual += s.residual
	r.activeNext += s.activeNext
	r.splitWork = r.splitWork || s.splitWork
	dense := a.foldDense(s, step, self, s.covered)
	a.sendHubFrames(a.hubPartials, a.phaseGate)
	a.sendHubFrames(a.hubUpdates, a.phaseGate)
	a.deliver(s, step, dense, a.phaseGate)
	return dense
}

// deliver ends a scatter into s for step. The messages addressed to this
// agent gather into the step's mail. Each remote destination's fold by
// target, in scatter order and in place, then leaves in one frame under g.
// With dense, which only a compute phase's flush passes (foldDense), they
// gather onto the plan's aggregates. s is left empty.
func (a *Agent) deliver(s *computeShard, step uint32, dense bool, g *ackGroup) {
	self := consistent.AgentID(a.id)
	if a.opts.CommAccounting {
		for i, msgs := range s.bufs {
			if len(msgs) > 0 {
				a.account(s.members[i] == self, uint64(len(msgs)))
			}
		}
	}
	for i, dst := range s.members {
		if dst == self {
			// This agent is the messages' source: gather, into the step's mail.
			a.gatherLocal(step, s.bufs[i])
			s.empty(i)
		}
	}
	for i, dst := range s.members {
		if dst == self {
			continue
		}
		msgs := s.bufs[i]
		s.peak = max(s.peak, len(msgs))
		out, keep := msgs[:0], &s.bufs[i]
		if dense {
			// The pushed messages, if any, gather onto the planned aggregates.
			p := &a.dense
			planned := p.msgs[p.from[i]:p.from[i+1]]
			if len(msgs) == 0 {
				a.sendMsgs(dst, step, planned, g)
				continue
			}
			out, keep = append(p.mixed[:0], planned...), &p.mixed
			a.foldTab.reset()
			for j := range out {
				s, _ := a.foldTab.put(out[j].Target)
				s.agg = algorithm.Word(j)
			}
		}
		*keep = a.foldByTarget(out, msgs)
		a.sendMsgs(dst, step, *keep, g)
	}
	s.reset()
}

// sendBufs ships every buffer of s as it stands — aggregates forwarded or
// re-routed, which their receiver merges — as step's, under g, and leaves s
// empty.
func (a *Agent) sendBufs(s *computeShard, step uint32, g *ackGroup) {
	for i, dst := range s.members {
		a.sendMsgs(dst, step, s.bufs[i], g)
	}
	s.reset()
}
