// Package delta is the frontier-seeded incremental recompute engine: the
// single-machine reference for ElGA's dynamic execution mode. It keeps
// the graph in the same CSR+delta-log store the agents use, applies each
// change batch through Store.ApplyBatch — which returns the
// affected-vertex frontier — and seeds the first superstep from that
// frontier instead of activating all vertices (§4.3: "only vertices
// directly modified in the batch are activated"). Where the snapshot
// baseline pays a full CSR rebuild plus a restart over every vertex, this
// engine pays only the batch application plus work proportional to how
// far the change actually propagates, which is the crossover
// `elga-bench storage` measures full recompute against.
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
	res := e.run(p, opts, seeds)
	res.Elapsed = time.Since(start)
	return res
}

// ApplyBatch applies the change batch through the store and converges the
// program seeded from the returned affected-vertex frontier. Vertices
// first seen in this batch are initialized; all prior state persists.
func (e *Engine) ApplyBatch(p algorithm.Program, b graph.Batch, opts Options) *Result {
	start := time.Now()
	// Both directions are stored, so the union of the two frontiers is
	// every locally changed endpoint; ApplyBatch marks them active and
	// TakeActive returns the union sorted and deduplicated.
	e.st.ApplyBatch(b, graph.Out)
	e.st.ApplyBatch(b, graph.In)
	seeds := e.st.TakeActive()
	ctx := &algorithm.Context{N: uint64(e.st.NumVertices()), Source: opts.Source}
	for _, v := range seeds {
		if _, ok := e.state[v]; !ok {
			e.state[v] = p.Init(v, ctx)
		}
	}
	res := e.run(p, opts, seeds)
	res.Elapsed = time.Since(start)
	return res
}

type mailbox struct {
	agg  algorithm.Word
	have bool
}

func (e *Engine) run(p algorithm.Program, opts Options, seeds []graph.VertexID) *Result {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		if p.HaltOnQuiescence() {
			maxSteps = 1 << 30
		} else {
			maxSteps = 20
		}
	}
	ctx := &algorithm.Context{N: uint64(e.st.NumVertices()), Source: opts.Source}
	adjust, hasAdjust := p.(algorithm.PerEdgeAdjuster)

	res := &Result{Frontier: len(seeds)}
	active := make(map[graph.VertexID]struct{}, len(seeds))
	for _, v := range seeds {
		active[v] = struct{}{}
	}
	mail := make(map[graph.VertexID]mailbox)
	for step := uint32(0); step < maxSteps; step++ {
		ctx.Step = step
		next := make(map[graph.VertexID]mailbox)
		nextActive := make(map[graph.VertexID]struct{})
		residual := 0.0

		deliver := func(to graph.VertexID, val algorithm.Word) {
			mb, ok := next[to]
			if !ok {
				mb.agg = p.ZeroAgg()
			}
			mb.agg = p.Gather(mb.agg, val)
			mb.have = true
			next[to] = mb
		}
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
			mv := p.MessageValue(v, nw, uint64(e.st.OutDegree(v)), ctx)
			if p.SendsOut() {
				for it := e.st.OutCursor(v); ; {
					w, ok := it.Next()
					if !ok {
						break
					}
					val := mv
					if hasAdjust {
						val = adjust.AdjustPerEdge(v, w, val)
					}
					deliver(w, val)
				}
			}
			if p.SendsIn() {
				for it := e.st.InCursor(v); ; {
					u, ok := it.Next()
					if !ok {
						break
					}
					val := mv
					if hasAdjust {
						val = adjust.AdjustPerEdge(u, v, val)
					}
					deliver(u, val)
				}
			}
		}
		// Work set: vertices with pending mail, plus active holdovers
		// (first step: the frontier seeds).
		for v := range mail {
			process(v)
		}
		for v := range active {
			if _, mailed := mail[v]; !mailed {
				process(v)
			}
		}
		res.Steps = step + 1
		mail = next
		active = nextActive
		if p.HaltOnQuiescence() {
			if len(active) == 0 && len(mail) == 0 {
				res.Converged = true
				break
			}
		} else if opts.Epsilon > 0 && step > 0 && residual < opts.Epsilon {
			res.Converged = true
			break
		}
	}
	res.State = e.state
	return res
}
