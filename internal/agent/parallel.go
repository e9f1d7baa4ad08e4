package agent

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// Intra-phase parallelism (a deviation from the paper's strictly
// single-threaded agent loop, documented in DESIGN.md): the compute and
// combine phases shard their work set across a bounded worker pool while
// the event loop is blocked inside the phase handler. Workers only READ
// shared agent state (store; the vertex table, by index: the event loop probed
// each work vertex once when it built the list and hands out slots, a worker
// reads its vertex's record in place, and nothing inserts while workers run,
// so no record moves; the step's mail, by slot; the dense plan's source
// bitmap; router — a route-table hit takes no lock, a miss fills the table
// under the router's own mutex) and WRITE into private computeShard accumulators — and into two shared places where
// each worker owns what it writes. A worker writes only the records of the vertices it was handed
// (their cached split-ness, Agent.split): a work list names a vertex once.
// And it fills in the routed adjacency (routePlan) bytes of the sealed runs
// of the vertices it scatters: one vertex is one worker's per phase and runs
// do not overlap, so no two workers touch the same byte. The event loop
// merges the shards after the pool joins, so every value install, mail
// delivery, dense fold, network send, gate transition, plan reset and view install
// (router.Update, which needs no lookup in flight) still happens
// single-threaded. Externally the agent remains a shared-nothing
// message-passing entity (§3.1).

// defaultParallelThreshold is the work-set size below which the phase
// runs on the event-loop goroutine alone; pool fan-out overhead
// dominates under it.
const defaultParallelThreshold = 64

var (
	// computeWorkerOverride pins the phase worker count (0 = GOMAXPROCS).
	computeWorkerOverride atomic.Int32
	// computeThresholdOverride pins the minimum parallel work-set size
	// (0 = defaultParallelThreshold).
	computeThresholdOverride atomic.Int32
)

// SetComputeParallelism tunes the intra-phase worker pool for tests and
// benchmarks: workers 0 restores GOMAXPROCS sizing, threshold 0 restores
// the default minimum work-set size. It applies process-wide to every
// agent's next phase.
func SetComputeParallelism(workers, threshold int) {
	computeWorkerOverride.Store(int32(workers))
	computeThresholdOverride.Store(int32(threshold))
}

func parallelThreshold() int {
	if t := int(computeThresholdOverride.Load()); t > 0 {
		return t
	}
	return defaultParallelThreshold
}

// workerCount sizes the pool for n work items.
func workerCount(n int) int {
	if n < parallelThreshold() {
		return 1
	}
	w := int(computeWorkerOverride.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

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

// valueWrite is a buffered store of a state, and whether the vertex stays
// active, for the vertex whose record is at slot i of the vertex table.
type valueWrite struct {
	i      uint32
	active bool
	w      algorithm.Word
}

// partialSend is a buffered split-vertex partial headed to a remote
// master, named by its position in router.Agents().
type partialSend struct {
	at int
	p  wire.ReplicaPartial
}

// valueUpdateSend is a buffered master→replica authoritative state push.
type valueUpdateSend struct {
	at int
	vu wire.ValueUpdate
}

// computeShard is one worker's private accumulator for a parallel phase.
// All slices are emptied after the merge, so a shard's capacity is reused
// across phases; peak covers them all.
type computeShard struct {
	values     []valueWrite
	residual   float64
	activeNext uint64
	covered    int // active work vertices the dense plan folds for
	splitWork  bool

	partialsLocal  []wire.ReplicaPartial
	partialsRemote []partialSend
	updates        []valueUpdateSend

	// Scattered messages buffer per destination agent, each addressed by
	// its position in the router's member list (route.EdgeOwnerIndex),
	// self included, and are delivered or sent at merge time.
	dstBufs

	// marks records where the shard's outputs for each stretch of the work
	// list begin, in the order it filled them: the shard's place in the pool
	// when handed out (getShards), then each chunk it ran (runSharded);
	// bufMarks holds each mark's buffer lengths, len(bufs) a mark. A stretch
	// ends where the shard's next mark begins, or at the outputs' end.
	marks    []chunkMark
	bufMarks []int32
}

// chunkMark is where a shard's outputs stood when it began a chunk.
type chunkMark struct{ chunk, values, partialsLocal, partialsRemote, updates int32 }

// at is where the shard's outputs stand, as chunk's beginning.
func (s *computeShard) at(chunk int) chunkMark {
	return chunkMark{int32(chunk), int32(len(s.values)), int32(len(s.partialsLocal)),
		int32(len(s.partialsRemote)), int32(len(s.updates))}
}

// mark notes that the outputs for chunk begin here.
func (s *computeShard) mark(chunk int) {
	s.marks = append(s.marks, s.at(chunk))
	for _, b := range s.bufs {
		s.bufMarks = append(s.bufMarks, int32(len(b)))
	}
}

// stretch is the outputs a shard filled from its k-th mark on.
type stretch struct {
	s *computeShard
	k int
}

// span returns where the stretch's values, partials and updates begin and
// end.
func (x stretch) span() (lo, hi chunkMark) {
	if s := x.s; x.k+1 < len(s.marks) {
		return s.marks[x.k], s.marks[x.k+1]
	}
	return x.s.marks[x.k], x.s.at(-1)
}

// buf returns the stretch's messages for destination i.
func (x stretch) buf(i int) []wire.VertexMsg {
	s, w := x.s, len(x.s.bufs)
	b := s.bufs[i]
	if x.k+1 < len(s.marks) {
		b = b[:s.bufMarks[(x.k+1)*w+i]]
	}
	return b[s.bufMarks[x.k*w+i]:]
}

// stretches lists the shards' outputs in work-list order, chunk by chunk
// whichever shard ran it: the order one worker would have produced them in.
func (a *Agent) stretches(shards []*computeShard) []stretch {
	out := a.mergeOrder[:0]
	for _, s := range shards {
		for k := range s.marks {
			out = append(out, stretch{s, k})
		}
	}
	slices.SortStableFunc(out, func(x, y stretch) int { return cmp.Compare(x.s.marks[x.k].chunk, y.s.marks[y.k].chunk) })
	a.mergeOrder = out
	return out
}

func (s *computeShard) reset() {
	s.peak = max(s.peak, len(s.values), len(s.partialsLocal), len(s.partialsRemote), len(s.updates))
	s.values = s.values[:0]
	s.residual = 0
	s.activeNext, s.covered = 0, 0
	s.splitWork = false
	s.partialsLocal = s.partialsLocal[:0]
	s.partialsRemote = s.partialsRemote[:0]
	s.updates = s.updates[:0]
	for i := range s.bufs {
		s.empty(i)
	}
	s.marks, s.bufMarks = s.marks[:0], s.bufMarks[:0]
}

// getShards returns w reusable shards, growing the pool on demand, each
// marked with its place: filled by hand, they merge in that order.
func (a *Agent) getShards(w int) []*computeShard {
	for len(a.shards) < w {
		a.shards = append(a.shards, &computeShard{})
	}
	for i, s := range a.shards[:w] {
		s.bind(a.router.Agents())
		s.mark(i)
	}
	return a.shards[:w]
}

// runSharded fans n work items across the pool; fn must only read shared
// agent state and write into its shard. It returns the shards to merge.
// With one worker the items run inline on the event-loop goroutine — the
// sequential path is the same code minus the goroutines.
func (a *Agent) runSharded(n int, fn func(s *computeShard, i int)) []*computeShard {
	w := workerCount(n)
	shards := a.getShards(w)
	if w <= 1 {
		s := shards[0]
		s.mark(0)
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return shards
	}
	// Chunked work stealing off a shared cursor: small chunks balance
	// skewed scatter costs (hub vertices), the atomic amortizes over the
	// chunk. Each shard marks where a chunk's outputs begin, so the merge
	// takes them in work-list order whatever the schedule was.
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	} else if chunk > 64 {
		chunk = 64
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(s *computeShard) {
			defer wg.Done()
			for {
				end := int(cursor.Add(int64(chunk)))
				base := end - chunk
				if base >= n {
					return
				}
				if end > n {
					end = n
				}
				s.mark(base / chunk)
				for i := base; i < end; i++ {
					fn(s, i)
				}
			}
		}(shards[wi])
	}
	wg.Wait()
	return shards
}

// peekValue returns the algorithm state of the vertex whose record is at
// slot i without writing the table — the worker-safe read of valueOf
// (workers buffer their writes and the merge installs them).
func (a *Agent) peekValue(i uint32) algorithm.Word {
	rec := &a.verts.slots[i]
	if rec.flags&recValue != 0 {
		return rec.value
	}
	return a.initValue(rec.key)
}

// placement returns the view answers (viewSplit, viewReplica) of the vertex
// whose record is at slot i under the installed view, asking the router only
// when the record's view stamp is stale. Phase workers call it for the
// vertices they were handed, so each writes only records no other worker
// reads.
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

// computeVertex runs the compute-phase duty for the work vertex at slot i
// into s, its aggregate read from the step's mail by slot: replica-partial
// forwarding for split vertices, or the full gather → update → scatter cycle
// for locally owned ones, read from the store once. The run's final step
// scatters nothing.
func (a *Agent) computeVertex(s *computeShard, i uint32, mail *slotMail, self consistent.AgentID) {
	r := a.run
	v := a.verts.slots[i].key
	agg, have := r.prog.ZeroAgg(), false
	if mail.holds(i) {
		agg, have = mail.agg[i], true
	}
	if a.placement(i)&viewSplit != 0 {
		s.splitWork = true
		// Replica duty: forward the local partial to the master.
		out, _ := a.store.Degree(v)
		p := wire.ReplicaPartial{
			Step:        r.step,
			Vertex:      v,
			Agg:         wire.Word(agg),
			HaveMsgs:    have,
			LocalOutDeg: uint64(out),
		}
		master, ok := a.router.Master(v)
		if !ok {
			return
		}
		if master == self {
			s.partialsLocal = append(s.partialsLocal, p)
		} else if at, ok := a.router.MemberIndex(master); ok {
			s.partialsRemote = append(s.partialsRemote, partialSend{at: at, p: p})
		}
		return
	}
	// Non-split vertex: the full gather→update→scatter cycle.
	old := a.peekValue(i)
	nw, act := r.prog.Update(v, old, agg, have, &r.ctx)
	s.values = append(s.values, valueWrite{i: i, active: act, w: nw})
	s.residual += r.prog.Residual(old, nw)
	if act {
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
}

// combineVertex runs the combine-phase master duty for the split vertex at
// slot i into s: fold replica partials, update state, scatter the local
// out-copies, and queue the authoritative value for the other replicas. In
// the run's final step nobody scatters: the replicas only install it.
func (a *Agent) combineVertex(s *computeShard, i uint32, p *partialEntry, self consistent.AgentID) {
	r := a.run
	v := a.verts.slots[i].key
	m, ok := a.router.Master(v)
	if !ok {
		return
	}
	if m != self {
		// A view change moved mastership; the partial is re-sent as a
		// fresh partial to the new master.
		if at, ok := a.router.MemberIndex(m); ok {
			s.partialsRemote = append(s.partialsRemote, partialSend{at: at, p: wire.ReplicaPartial{
				Step: r.step, Vertex: v, Agg: wire.Word(p.agg),
				HaveMsgs: p.have, LocalOutDeg: p.outDeg,
			}})
		}
		return
	}
	old := a.peekValue(i)
	nw, act := r.prog.Update(v, old, p.agg, p.have, &r.ctx)
	s.values = append(s.values, valueWrite{i: i, active: act, w: nw})
	s.residual += r.prog.Residual(old, nw)
	if !act {
		return
	}
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
			s.updates = append(s.updates, valueUpdateSend{at: int(at), vu: vu})
		}
	}
}

// mergeShards folds worker results back into run/agent state on the
// event-loop goroutine: value installs, activity, partial stashes, gated
// sends, and the delivery of the messages scattered for step all happen
// here, under the same phase gate the sequential path uses, and in work-list
// order (stretches): chunk by chunk, whichever worker ran it, then what the
// dense fold pushed. So the answer does not follow the steal schedule. It
// reports whether the dense plan folded the step.
func (a *Agent) mergeShards(shards []*computeShard, step uint32, self consistent.AgentID) bool {
	r, t, covered := a.run, &a.verts, 0
	for _, s := range shards {
		r.residual += s.residual
		r.activeNext += s.activeNext
		covered += s.covered
		if s.splitWork {
			r.splitWork = true
		}
	}
	for _, x := range a.stretches(shards) {
		s := x.s
		lo, hi := x.span()
		for _, vw := range s.values[lo.values:hi.values] {
			t.setAt(vw.i, vw.w)
			if vw.active {
				t.mark(setActive, vw.i)
			}
		}
		for _, p := range s.partialsLocal[lo.partialsLocal:hi.partialsLocal] {
			a.stashPartial(p.Step, p.Vertex, algorithm.Word(p.Agg), p.HaveMsgs, p.LocalOutDeg)
		}
		for i := range s.partialsRemote[lo.partialsRemote:hi.partialsRemote] {
			ps := &s.partialsRemote[int(lo.partialsRemote)+i]
			a.bufferPartial(ps.at, &ps.p)
		}
		for i := range s.updates[lo.updates:hi.updates] {
			us := &s.updates[int(lo.updates)+i]
			a.bufferUpdate(us.at, &us.vu)
		}
	}
	// What the dense fold pushes follows every chunk.
	shards[0].mark(math.MaxInt32)
	dense := a.foldDense(shards[0], step, self, covered)
	// The phase's hub records leave in one frame per peer and record type.
	a.sendHubFrames(a.hubPartials, a.phaseGate)
	a.sendHubFrames(a.hubUpdates, a.phaseGate)
	a.deliver(shards, step, dense, a.phaseGate)
	return dense
}

// deliver ends a scatter into shards — a phase's, or a sequential scatter's
// one shard (seqShard) — for step, taking every destination's messages in
// work-list order (stretches). Those addressed to this agent gather into the
// step's mail. Each remote destination's fold across the
// stretches into one buffer — the single shard's own, in place, or the
// agent's merge buffer — and leave from there in one frame under g. With
// dense, which only a compute phase's merge passes (foldDense), they gather
// onto the plan's aggregates. The shards are left empty.
func (a *Agent) deliver(shards []*computeShard, step uint32, dense bool, g *ackGroup) {
	self, first, order := consistent.AgentID(a.id), shards[0], a.stretches(shards)
	for _, s := range shards {
		for i, msgs := range s.bufs {
			if len(msgs) > 0 && a.opts.CommAccounting {
				a.account(s.members[i] == self, uint64(len(msgs)))
			}
		}
	}
	for i, dst := range first.members {
		if dst != self {
			continue
		}
		// This agent is the messages' source: gather, into the step's mail.
		for _, x := range order {
			a.gatherLocal(step, x.buf(i))
		}
		for _, s := range shards {
			s.empty(i)
		}
	}
	for i, dst := range first.members {
		if dst == self {
			continue
		}
		pushed := 0
		for _, s := range shards {
			pushed += len(s.bufs[i])
		}
		first.peak = max(first.peak, len(first.bufs[i]))
		out, keep := first.bufs[i][:0], &first.bufs[i]
		if len(shards) > 1 {
			out, keep = a.merged[:0], &a.merged
		}
		if dense {
			// The pushed messages, if any, gather onto the planned aggregates.
			p := &a.dense
			planned := p.msgs[p.from[i]:p.from[i+1]]
			if pushed == 0 {
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
		for _, x := range order {
			out = a.foldByTarget(out, x.buf(i))
		}
		if *keep = out; keep == &a.merged {
			a.mergedPeak = max(a.mergedPeak, len(out))
		}
		a.sendMsgs(dst, step, out, g)
	}
	for _, s := range shards {
		s.reset()
	}
}

// seqShard hands a sequential scatter, a forward or an async handler the
// pool's first shard, bound to the installed view: no phase is running then,
// and none of them runs inside another. deliver, sendBufs or flushAsync
// leaves it empty again.
func (a *Agent) seqShard() []*computeShard { return a.getShards(1) }

// sendBufs ships every buffer of s as it stands — aggregates forwarded or
// re-routed, which their receiver merges — as step's, under g, and leaves s
// empty.
func (a *Agent) sendBufs(s *computeShard, step uint32, g *ackGroup) {
	for i, dst := range s.members {
		a.sendMsgs(dst, step, s.bufs[i], g)
	}
	s.reset()
}
