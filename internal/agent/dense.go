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
// targets their runs reach there, in first-seen order, each with its sources.
// A dense compute step's workers update the sources without scattering; once
// the values are installed, foldDense computes each source's message value
// once and folds along the plan: what a message per edge folded by target gave,
// byte for byte, with no message buffered and no table probe per edge. It is
// built at a run's first compute step and again whenever the view epoch, the
// store's version or the vertex table's layout moves.
type densePlan struct {
	on, built     bool // on: the run is dense, the plan current; built: since the last trim
	builds, folds int  // plans built and steps folded, for tests
	run, layout   uint32
	epoch, stored uint64

	src   []uint32         // the sources' vertex-table slots
	deg   []uint32         // their out-degrees
	mv    []algorithm.Word // their message values this step
	has   []uint64         // bitmap over the vertex-table slots of the sources
	msgs  []wire.VertexMsg // per target: Target, Via = its first source, Value = the step's fold
	from  []uint32         // member i's targets are msgs[from[i]:from[i+1]]
	off   []uint32         // target g's sources are srcs[off[g]:off[g+1]]
	srcs  []uint32         // source indices
	mixed []wire.VertexMsg // a member's planned and pushed messages, folded
}

// covers reports whether the plan folds what the source at slot i sends.
func (p *densePlan) covers(i uint32) bool { return p.on && p.has[i/64]&(1<<(i%64)) != 0 }

// fold gathers the message values of target g's sources onto agg.
func (p *densePlan) fold(prog algorithm.Program, agg algorithm.Word, g uint32) algorithm.Word {
	return algorithm.GatherAt(prog, agg, p.mv, p.srcs[p.off[g]:p.off[g+1]])
}

// trim ends a run's hold on the plan (keepScratch): a run that built one
// keeps what it used for the next, any other lets it all go.
func (p *densePlan) trim() {
	if !p.built {
		*p = densePlan{builds: p.builds, folds: p.folds}
		return
	}
	p.src, p.deg, p.mv, p.has = trimmed(p.src, len(p.src)), trimmed(p.deg, len(p.deg)), trimmed(p.mv, len(p.mv)), trimmed(p.has, len(p.has))
	p.msgs, p.mixed, p.from = trimmed(p.msgs, len(p.msgs)), trimmed(p.mixed, len(p.msgs)), trimmed(p.from, len(p.from))
	p.off, p.srcs = trimmed(p.off, len(p.off)), trimmed(p.srcs, len(p.srcs))
	p.on, p.built, p.run = false, false, 0
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

// syncDense brings the plan in line with the run, the view, the store and
// the vertex table, on the event loop before a compute phase's workers start
// on the work list.
func (a *Agent) syncDense(work []uint32) {
	p, r := &a.dense, a.run
	p.on = !r.prog.HaltOnQuiescence() && r.adjust == nil
	for dir, sends := range [2]bool{graph.Out: r.prog.SendsOut(), graph.In: r.prog.SendsIn()} {
		p.on = p.on && (!sends || a.plan.dir[dir] != nil)
	}
	epoch, stored, layout := a.router.Epoch(), a.store.Version(), a.verts.layout
	if !p.on || p.run == r.id && p.epoch == epoch && p.stored == stored && p.layout == layout {
		return
	}
	p.run, p.epoch, p.stored, p.layout = r.id, epoch, stored, layout
	a.buildDense(work)
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
	p.built = true
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
	sends := [2]bool{graph.Out: prog.SendsOut(), graph.In: prog.SendsIn()}
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
}

// foldDense is a dense compute step's fold, run by mergeShards once the
// values are installed: into the mailbox for this agent, and into the plan's
// messages for every other member, which mergeShards sends. It reports
// whether it folded: not with the plan off, in another phase or the run's
// final step, nor when a source did not activate — those that did push into s.
func (a *Agent) foldDense(s *computeShard, step uint32, self consistent.AgentID) bool {
	p, r, t := &a.dense, a.run, &a.verts
	if !p.on || r.phase != wire.PhaseCompute || r.final() {
		return false
	}
	all := true
	for k, i := range p.src {
		if rec := &t.slots[i]; t.in(setActive, i) {
			p.mv[k] = r.prog.MessageValue(rec.key, rec.value, uint64(p.deg[k]), &r.ctx)
		} else {
			all = false
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
		mail := a.mailFor(step)
		for g := lo; g < hi; g++ {
			m := mail.eager(prog, p.msgs[g].Target)
			m.agg = p.fold(prog, m.agg, g)
		}
	}
	return true
}
