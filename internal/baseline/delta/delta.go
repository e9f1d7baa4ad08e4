// Package delta is the frontier-seeded incremental recompute engine: the
// single-machine reference for ElGA's dynamic execution mode. It keeps
// the graph in the same CSR+delta-log store the agents use, applies each
// change batch through Store.ApplyBatch, and opens the recompute with the
// agents' seed announce instead of activating all vertices (§4.3: "only
// vertices directly modified in the batch are activated"): the changed
// endpoints send their values along the copies the batch inserted, read
// from the store's fresh log (Store.TakeFresh). Where the snapshot
// baseline pays a full CSR rebuild plus a restart over every vertex, this
// engine pays only the batch application plus work proportional to how
// far the change actually propagates.
//
// The engine is deliberately single-threaded: it isolates the
// storage-and-frontier effect from parallelization, so full-vs-delta
// comparisons on the same Engine are apples-to-apples.
package delta

import (
	"time"

	"elga/internal/algorithm"
	"elga/internal/graph"
)

// Options configures a run.
type Options struct {
	// MaxSteps caps supersteps; 0 means 1<<30 for quiescence-halting
	// programs and 20 otherwise (matching the bsp baseline).
	MaxSteps uint32
	// Epsilon is the residual convergence threshold for non-quiescent
	// programs (PageRank).
	Epsilon float64
	// Source is the traversal root.
	Source graph.VertexID
}

// Engine holds the dynamic store and per-vertex state between batches.
type Engine struct {
	st    *graph.Store
	state map[graph.VertexID]algorithm.Word
}

// New builds an engine over an initial edge list. Both edge directions
// are stored so SendsIn programs (WCC) can scatter along reverse edges.
func New(el graph.EdgeList) *Engine {
	st := graph.NewStore()
	for _, e := range el {
		st.AddEdge(e.Src, e.Dst, graph.Out)
		st.AddEdge(e.Src, e.Dst, graph.In)
	}
	return &Engine{st: st, state: make(map[graph.VertexID]algorithm.Word)}
}

// Store exposes the underlying store (benchmarks read bytes/edge and
// compaction counts off it).
func (e *Engine) Store() *graph.Store { return e.st }

// NumEdges returns the current edge count.
func (e *Engine) NumEdges() int { return e.st.NumOutEdges() }

// Result reports one run.
type Result struct {
	// Steps is the superstep count.
	Steps uint32
	// Converged reports quiescence or residual convergence (vs MaxSteps).
	Converged bool
	// Frontier is the number of seed vertices the run started from.
	Frontier int
	// Elapsed is the end-to-end time including batch application.
	Elapsed time.Duration
	// State maps every present vertex to its output; owned by the engine,
	// valid until the next run.
	State map[graph.VertexID]algorithm.Word
}

// RunFull recomputes from scratch: state is re-initialized and every
// vertex starts active per InitActive.
func (e *Engine) RunFull(p algorithm.Program, opts Options) *Result {
	start := time.Now()
	ctx := &algorithm.Context{N: uint64(e.st.NumVertices()), Source: opts.Source}
	e.state = make(map[graph.VertexID]algorithm.Word, e.st.NumVertices())
	var seeds []graph.VertexID
	e.st.Vertices(func(v graph.VertexID) bool {
		e.state[v] = p.Init(v, ctx)
		if p.InitActive(v, ctx) {
			seeds = append(seeds, v)
		}
		return true
	})
	res := e.run(p, opts, 0, nil, seeds)
	res.Elapsed = time.Since(start)
	return res
}

// ApplyBatch applies the change batch through the store and converges the
// program from what it changed. Step 0 announces the seeds' values the way
// the agents do: while the store's fresh log is intact, along only the
// copies the batch inserted; once it is lost, every changed endpoint
// along all its edges. Vertices first seen in this batch are initialized;
// all prior state persists. Like the cluster, this is exact only for
// quiescence-halting min-programs over insert batches (WCC, BFS, SSSP).
func (e *Engine) ApplyBatch(p algorithm.Program, b graph.Batch, opts Options) *Result {
	start := time.Now()
	// Both directions are stored, so the union of the two frontiers is
	// every locally changed endpoint; ApplyBatch marks them active and
	// TakeActive returns the union sorted and deduplicated.
	e.st.ApplyBatch(b, graph.Out)
	e.st.ApplyBatch(b, graph.In)
	fresh, logged := e.st.TakeFresh()
	seeds := e.st.TakeActive()
	ctx := &algorithm.Context{N: uint64(e.st.NumVertices()), Source: opts.Source}
	for _, v := range seeds {
		if _, ok := e.state[v]; !ok {
			e.state[v] = p.Init(v, ctx)
		}
	}
	s := e.newStep(p, ctx)
	if logged {
		for _, c := range fresh {
			sends := c.Dir == graph.Out && p.SendsOut() || c.Dir == graph.In && p.SendsIn()
			if sends && e.st.HasCopy(c) {
				v := c.Key()
				s.send(v, c.Nbr(), c.Dir, s.messageValue(v, e.state[v]))
			}
		}
	} else {
		for _, v := range seeds {
			s.scatter(v, s.messageValue(v, e.state[v]))
		}
	}
	res := e.run(p, opts, 1, s.next, nil)
	res.Frontier = len(seeds)
	res.Elapsed = time.Since(start)
	return res
}

type mailbox struct {
	agg  algorithm.Word
	have bool
}

// step is one superstep's outbox: the mailboxes of the next.
type step struct {
	e      *Engine
	p      algorithm.Program
	ctx    *algorithm.Context
	adjust algorithm.PerEdgeAdjuster // nil unless the program adjusts per edge
	next   map[graph.VertexID]mailbox
}

func (e *Engine) newStep(p algorithm.Program, ctx *algorithm.Context) *step {
	adjust, _ := p.(algorithm.PerEdgeAdjuster)
	return &step{e: e, p: p, ctx: ctx, adjust: adjust, next: make(map[graph.VertexID]mailbox)}
}

// messageValue is v's message value for state w.
func (s *step) messageValue(v graph.VertexID, w algorithm.Word) algorithm.Word {
	out, _ := s.e.st.Degree(v)
	return s.p.MessageValue(v, w, uint64(out), s.ctx)
}

// send delivers mv along the edge between v and its dir-neighbour w.
func (s *step) send(v, w graph.VertexID, dir graph.Dir, mv algorithm.Word) {
	if s.adjust != nil {
		if dir == graph.Out {
			mv = s.adjust.AdjustPerEdge(v, w, mv)
		} else {
			mv = s.adjust.AdjustPerEdge(w, v, mv)
		}
	}
	mb, ok := s.next[w]
	if !ok {
		mb.agg = s.p.ZeroAgg()
	}
	mb.agg = s.p.Gather(mb.agg, mv)
	mb.have = true
	s.next[w] = mb
}

// scatter sends mv along all of v's edges in the directions the program
// uses.
func (s *step) scatter(v graph.VertexID, mv algorithm.Word) {
	if s.p.SendsOut() {
		for it := s.e.st.OutCursor(v); ; {
			w, ok := it.Next()
			if !ok {
				break
			}
			s.send(v, w, graph.Out, mv)
		}
	}
	if s.p.SendsIn() {
		for it := s.e.st.InCursor(v); ; {
			u, ok := it.Next()
			if !ok {
				break
			}
			s.send(v, u, graph.In, mv)
		}
	}
}

// run executes supersteps from first on, mail and active being what that
// step starts with. A run that opens on an announce (ApplyBatch) counts it
// as step 0.
func (e *Engine) run(p algorithm.Program, opts Options, first uint32, mail map[graph.VertexID]mailbox, seeds []graph.VertexID) *Result {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		if p.HaltOnQuiescence() {
			maxSteps = 1 << 30
		} else {
			maxSteps = 20
		}
	}
	ctx := &algorithm.Context{N: uint64(e.st.NumVertices()), Source: opts.Source}

	res := &Result{Frontier: len(seeds), Steps: first}
	active := make(map[graph.VertexID]struct{}, len(seeds))
	for _, v := range seeds {
		active[v] = struct{}{}
	}
	if first > 0 && len(mail) == 0 && p.HaltOnQuiescence() {
		res.Converged = true // the announce sent nothing
	}
	for step := first; step < maxSteps && !res.Converged; step++ {
		ctx.Step = step
		s := e.newStep(p, ctx)
		nextActive := make(map[graph.VertexID]struct{})
		residual := 0.0

		process := func(v graph.VertexID) {
			mb, haveMsgs := mail[v]
			agg := p.ZeroAgg()
			if haveMsgs {
				agg = mb.agg
			}
			old, known := e.state[v]
			if !known {
				// Message reached a vertex never initialized (present
				// before the engine's first full run): lazy-init.
				old = p.Init(v, ctx)
			}
			nw, act := p.Update(v, old, agg, haveMsgs, ctx)
			e.state[v] = nw
			residual += p.Residual(old, nw)
			if !act {
				return
			}
			nextActive[v] = struct{}{}
			s.scatter(v, s.messageValue(v, nw))
		}
		// Work set: vertices with pending mail, plus active holdovers
		// (first step of a full run: the initially active vertices).
		for v := range mail {
			process(v)
		}
		for v := range active {
			if _, mailed := mail[v]; !mailed {
				process(v)
			}
		}
		res.Steps = step + 1
		mail = s.next
		active = nextActive
		if p.HaltOnQuiescence() {
			if len(active) == 0 && len(mail) == 0 {
				res.Converged = true
			}
		} else if opts.Epsilon > 0 && step > 0 && residual < opts.Epsilon {
			res.Converged = true
		}
	}
	res.State = e.state
	return res
}
