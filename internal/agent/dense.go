package agent

import (
	"cmp"
	"slices"

	"elga/internal/algorithm"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/wire"
)

// densePlan is the transposed routed adjacency of a dense run, whose program
// scatters along every held edge every superstep: it does not halt on
// quiescence and adjusts nothing per edge (PageRank, PPR). Its sources are
// the work vertices that are not split and whose runs in every scattered
// direction are whole, in vertex order; for each member it lists the distinct
// targets their runs reach there, in first-seen order, each with its sources,
// and for this agent's own targets their vertex-table slots. A dense compute
// step's workers update the sources without scattering; once the values are
// installed, foldDense computes each source's message value once and folds
// along the plan: what a message per edge folded by target gave, byte for
// byte, with no message buffered and no table probe per edge. The local
// targets fold into the next step's slot mail (vertexTable.mail).
//
// The plan outlives its run. It is rebuilt only when what it was read from
// moves: the program's send directions, the view epoch, the store's version,
// the vertex table's layout, or — at a run's first step — the work list, which
// must equal the one it was built over. So a run that follows a dense run on
// an unchanged graph (PageRank again, PPR after PageRank) builds nothing; a
// run that uses no plan lets it go (trimDense).
type densePlan struct {
	on, used      bool // on: the run is dense, the plan current; used: since the last trim
	sum           bool // the run's program is a FloatSum (fold adds float64s)
	builds, folds int  // plans built and steps folded, for tests
	run, layout   uint32
	epoch, stored uint64
	dirs          [2]bool   // the send directions it was built for
	work          []uint32  // the work list it was built over
	stand         workStamp // the last compute step (standingWork)

	src   []uint32         // the sources' vertex-table slots
	deg   []uint32         // their out-degrees
	mv    []algorithm.Word // their message values this step
	has   []uint64         // bitmap over the vertex-table slots of the sources
	msgs  []wire.VertexMsg // per target: Target, Via = its first source, Value = the step's fold
	from  []uint32         // member i's targets are msgs[from[i]:from[i+1]]
	off   []uint32         // target g's sources are srcs[off[g]:off[g+1]]
	srcs  []uint32         // source indices
	local []uint32         // the slots of this agent's targets, noSlot if it had no record
	mixed []wire.VertexMsg // a member's planned and pushed messages, folded
}

// workStamp is a compute step's work list as the step left it: the run and
// step, the generation of the work set, and ok if the step folded with every
// vertex on the list active, so the next step's list may start from it.
type workStamp struct {
	run, step uint32
	gen       uint16
	ok        bool
}

// noSlot marks a local target of the plan that had no vertex record.
const noSlot = ^uint32(0)

// covers reports whether the plan folds what the source at slot i sends.
func (p *densePlan) covers(i uint32) bool { return p.on && p.source(i) }

// source reports whether the record at slot i is one of the plan's sources.
func (p *densePlan) source(i uint32) bool { return p.has[i/64]&(1<<(i%64)) != 0 }

// fold gathers the message values of target g's sources onto agg.
func (p *densePlan) fold(prog algorithm.Program, agg algorithm.Word, g uint32) algorithm.Word {
	at := p.srcs[p.off[g]:p.off[g+1]]
	if p.sum {
		return algorithm.SumAt(agg, p.mv, at)
	}
	return algorithm.GatherAt(prog, agg, p.mv, at)
}

// trimDense ends a run's hold on the dense plan: a run that used one keeps
// it whole for the next (its fold scratch by keepScratch); any other lets
// it, the slot mail's arrays and the peers' slot caches go.
func (a *Agent) trimDense() {
	p, m := &a.dense, &a.verts.mail
	if !p.used {
		*p, *m = densePlan{builds: p.builds, folds: p.folds}, slotMail{}
		a.verts.peers = nil
		return
	}
	p.mixed = trimmed(p.mixed, len(p.msgs))
	p.on, p.used = false, false
}

// sized returns s at length n, zeroed.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// sendDirs is which directions prog scatters along, indexed by graph.Dir.
func sendDirs(prog algorithm.Program) (d [2]bool) {
	d[graph.Out], d[graph.In] = prog.SendsOut(), prog.SendsIn()
	return d
}

// syncDense brings the plan in line with the run, the view, the store and
// the vertex table, on the event loop before a compute phase's workers start
// on the work list.
func (a *Agent) syncDense(work []uint32) {
	p, r := &a.dense, a.run
	dirs := sendDirs(r.prog)
	p.on = !r.prog.HaltOnQuiescence() && r.adjust == nil
	for dir, sends := range dirs {
		p.on = p.on && (!sends || a.plan.dir[dir] != nil)
	}
	if !p.on {
		return
	}
	p.used, p.sum = true, algorithm.IsFloatSum(r.prog)
	if a.planStands(dirs) && (p.run == r.id || slices.Equal(p.work, work)) {
		p.run = r.id
		return
	}
	p.run, p.dirs = r.id, dirs
	p.epoch, p.stored, p.layout = a.router.Epoch(), a.store.Version(), a.verts.layout
	p.work = append(p.work[:0], work...)
	a.buildDense(work)
}

// planStands reports whether the plan was built for send directions dirs
// under the installed view, the store's version and the table's layout.
func (a *Agent) planStands(dirs [2]bool) bool {
	p := &a.dense
	return p.dirs == dirs && p.epoch == a.router.Epoch() && p.stored == a.store.Version() &&
		p.layout == a.verts.layout
}

// standingWork reports whether this compute step's work list starts as the
// last one's, which is still the work set: the run's plan was on and
// stands, the last step was this run's previous compute step, no phase has
// begun a work set since, and that step folded with every work vertex
// active. Each of those went into the active set in work-list order and
// nothing else did, so the walk of the active set would rebuild the list as
// it stands; and every plan source is on it.
func (a *Agent) standingWork() bool {
	p, r := &a.dense, a.run
	st := p.stand
	return st.ok && p.on && st.run == r.id && st.step+1 == r.step && st.gen == a.verts.gen[setWork] &&
		p.run == r.id && a.planStands(sendDirs(r.prog))
}

// buildDense builds the plan over the work list. A pass over the sources
// puts every routed edge's target in its member's table, whose insertion
// order is first-seen order and whose slot holds the target's place in it
// and counts its sources, and notes each edge's source and target; the
// targets are then laid out member by member in that order, and the edges
// target by target.
func (a *Agent) buildDense(work []uint32) {
	p, t, prog := &a.dense, &a.verts, a.run.prog
	p.builds++
	byKey := func(x, y uint32) int { return cmp.Compare(t.slots[x].key, t.slots[y].key) }
	p.src = append(p.src[:0], work...)
	if !slices.IsSortedFunc(p.src, byKey) {
		slices.SortFunc(p.src, byKey)
	}
	p.deg = p.deg[:0]
	p.has = sized(p.has, (len(t.slots)+63)/64)
	// Each routed edge's source and its target's place in its member's table.
	edges := make([][2]uint32, 0, len(a.plan.dir[graph.Out])+len(a.plan.dir[graph.In]))
	members := make([]uint8, 0, cap(edges))
	tabs := make([]aggTable, a.router.NumAgents())
	sends := sendDirs(prog)
	kept := 0
	for _, i := range p.src {
		if a.placement(i)&viewSplit != 0 {
			continue
		}
		var runs graph.VertexRuns
		a.store.RunsInto(&runs, t.slots[i].key)
		var routed [2][]uint8
		whole := true
		for dir, s := range sends {
			if s {
				routed[dir] = a.routedRun(t.slots[i].key, graph.Dir(dir), &runs)
				whole = whole && routed[dir] != nil
			}
		}
		if !whole {
			continue
		}
		for dir := range routed {
			for j, m := range routed[dir] {
				if m != planNoOwner {
					s, fresh := tabs[m].put(runs.Run[dir][j])
					if fresh { // the slot holds the target's place above its count
						s.agg = algorithm.Word(len(tabs[m].order)-1) << 32
					}
					s.agg++
					edges = append(edges, [2]uint32{uint32(kept), uint32(s.agg >> 32)})
					members = append(members, m)
				}
			}
		}
		p.src[kept] = i
		kept++
		p.deg = append(p.deg, uint32(runs.Deg[graph.Out]))
		p.has[i/64] |= 1 << (i % 64)
	}
	p.src = p.src[:kept]
	p.mv = sized(p.mv, kept)
	p.from = sized(p.from, len(tabs)+1)
	for m := range tabs {
		p.from[m+1] = p.from[m] + uint32(len(tabs[m].order))
	}
	n := p.from[len(tabs)]
	p.msgs, p.off = sized(p.msgs, int(n)), sized(p.off, int(n)+1)
	for m := range tabs {
		for j, slot := range tabs[m].order {
			s, at := &tabs[m].slots[slot], p.from[m]+uint32(j)
			p.msgs[at].Target, p.off[at+1] = s.key, p.off[at]+uint32(s.agg)
			s.agg = algorithm.Word(p.off[at]) // now where its next source goes
		}
	}
	p.srcs = sized(p.srcs, len(edges))
	for e, m := range members {
		k, j := edges[e][0], edges[e][1]
		s, at := &tabs[m].slots[tabs[m].order[j]], p.from[m]+j
		if uint32(s.agg) == p.off[at] {
			p.msgs[at].Via = t.slots[p.src[k]].key
		}
		p.srcs[s.agg] = k
		s.agg++
	}
	p.local = p.local[:0]
	if self := a.selfIndex(); self >= 0 {
		for g := p.from[self]; g < p.from[self+1]; g++ {
			slot := noSlot
			if i := t.find(p.msgs[g].Target); i >= 0 {
				slot = uint32(i)
			}
			p.local = append(p.local, slot)
		}
	}
}

// foldDense is a dense compute step's fold, run by mergeShards once the
// values are installed: into the next step's mail for this agent (foldLocal),
// and into the plan's messages for every other member, which mergeShards
// sends. covered counts the sources the step activated. It reports
// whether it folded: not with the plan off, in another phase or the run's
// final step, nor when a source did not activate — those that did push into s.
func (a *Agent) foldDense(s *computeShard, step uint32, self consistent.AgentID, covered int) bool {
	p, r, t := &a.dense, a.run, &a.verts
	if !p.on || r.phase != wire.PhaseCompute || r.final() {
		return false
	}
	all := covered == len(p.src)
	for k, i := range p.src {
		if rec := &t.slots[i]; all || t.in(setActive, i) {
			p.mv[k] = r.prog.MessageValue(rec.key, rec.value, uint64(p.deg[k]), &r.ctx)
		}
	}
	if !all {
		for k, i := range p.src {
			if t.in(setActive, i) {
				a.scatter(s, t.slots[i].key, p.mv[k])
			}
		}
		return false
	}
	p.folds++
	prog, zero := r.prog, r.prog.ZeroAgg()
	for i, dst := range s.members {
		lo, hi := p.from[i], p.from[i+1]
		if a.opts.CommAccounting {
			a.account(dst == self, uint64(p.off[hi]-p.off[lo]))
		}
		if dst != self {
			for g := lo; g < hi; g++ {
				p.msgs[g].Value = wire.Word(p.fold(prog, zero, g))
			}
			continue
		}
		a.foldLocal(step, lo, hi)
	}
	return true
}

// foldLocal folds the plan's targets lo to hi, this agent's own, into step's
// mail: through the slots the plan resolved once the step's slot mail is
// open, else — and from the first target that had no record on — into the
// step's table, as the push path's gathers did.
func (a *Agent) foldLocal(step, lo, hi uint32) {
	p, m, prog := &a.dense, &a.verts.mail, a.run.prog
	g := lo
	if a.openMail(step) {
		for ; g < hi && p.local[g-lo] != noSlot; g++ {
			w := m.eager(prog, p.local[g-lo])
			*w = p.fold(prog, *w, g)
		}
	}
	if g == hi {
		return
	}
	mail := a.mailFor(step)
	for ; g < hi; g++ {
		s := mail.eager(prog, p.msgs[g].Target)
		s.agg = p.fold(prog, s.agg, g)
	}
}

// openMail reports whether step's mail is held by slot, moving it there if
// it can: the run is dense, the plan matches the vertex table's layout, and
// no other step's mail is there. What the step's table already holds moves
// over in its order, provided every entry is an aggregate under the run (no
// raw buffer, no dead entry) of a vertex with a record; else the step stays in
// its table.
func (a *Agent) openMail(step uint32) bool {
	t, m := &a.verts, &a.verts.mail
	if m.open || !a.dense.on || a.dense.layout != t.layout {
		return m.open && m.step == step
	}
	tab := a.mailbox[step]
	if tab != nil {
		if tab.raw != nil || tab.live != len(tab.order) {
			return false
		}
		for _, si := range tab.order {
			if s := &tab.slots[si]; s.flags&slotEager == 0 || t.find(s.key) < 0 {
				return false
			}
		}
	}
	m.size(len(t.slots))
	m.open, m.step = true, step
	if tab != nil {
		for _, si := range tab.order {
			s := &tab.slots[si]
			i := uint32(t.find(s.key))
			m.add(i)
			m.agg[i] = s.agg
		}
		delete(a.mailbox, step)
		a.recycleMail(tab)
	}
	return true
}

// spillMail moves the slot mail back into its step's table, in first-arrival
// order, and closes it: a target it cannot hold arrived, or the step's mail
// is about to be read or re-routed by key (a view install, a migration, a
// checkpoint, a new run).
func (a *Agent) spillMail() {
	t, m := &a.verts, &a.verts.mail
	if !m.open {
		return
	}
	m.open = false
	tab := a.mailFor(m.step)
	for _, i := range m.order {
		s, _ := tab.put(t.slots[i].key)
		s.flags, s.agg = slotEager, m.agg[i]
	}
	m.close()
}
