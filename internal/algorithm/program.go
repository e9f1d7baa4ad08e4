// Package algorithm defines ElGA's vertex-centric programming model and
// the locally persistent dynamic graph algorithms used in the paper's
// evaluation (§3.2, §4.3): PageRank, weakly connected components (static
// and incremental), plus BFS/SSSP as additional traversal workloads.
//
// A Program runs "from the perspective of a vertex": it folds incoming
// neighbour messages into an aggregate, updates its persistent per-vertex
// state, and scatters messages along its edges. The same Program drives
// the synchronous (BSP) engine, the asynchronous engine, and the
// single-machine baselines, which is how the paper keeps algorithms
// identical across systems so "the performance differences come from the
// systems themselves".
package algorithm

import (
	"math"

	"elga/internal/graph"
)

// Word is a raw 64-bit per-vertex state or message value. PageRank stores
// float64 bits; component and distance algorithms store integers.
type Word uint64

// F64 interprets the word as a float64.
func (w Word) F64() float64 { return math.Float64frombits(uint64(w)) }

// FromF64 packs a float64 into a Word.
func FromF64(f float64) Word { return Word(math.Float64bits(f)) }

// Context carries run-wide values into program callbacks.
type Context struct {
	// N is the current global vertex count (PageRank's 1/n term).
	N uint64
	// Step is the current superstep.
	Step uint32
	// Source is the root vertex for traversal programs.
	Source graph.VertexID
}

// Program is a locally persistent vertex program.
//
// Engine contract, per superstep, per vertex v that is active or has
// messages: agg := fold(Gather) over messages (MergeAgg combines replica
// partials); state, activate := Update(...); if activate, the engine
// scatters MessageValue along the directions SendsOut/SendsIn report.
type Program interface {
	// Name is the registry key ("pagerank", "wcc", ...).
	Name() string
	// Init returns v's initial state on a from-scratch run, and the
	// state assigned to vertices first seen by an incremental run.
	Init(v graph.VertexID, ctx *Context) Word
	// InitActive reports whether v starts active on a from-scratch run.
	InitActive(v graph.VertexID, ctx *Context) bool
	// ZeroAgg is the aggregation identity.
	ZeroAgg() Word
	// Gather folds one message into the aggregate.
	Gather(agg, msg Word) Word
	// MergeAgg combines two partial aggregates (replica combination);
	// it must be associative and commutative with identity ZeroAgg.
	MergeAgg(a, b Word) Word
	// Update computes the new state from the old state and the
	// aggregate; haveMsgs distinguishes "no messages" from a zero
	// aggregate. activate requests a scatter now and processing next
	// superstep.
	Update(v graph.VertexID, old, agg Word, haveMsgs bool, ctx *Context) (state Word, activate bool)
	// Residual is v's contribution to the global convergence metric.
	Residual(old, new Word) float64
	// MessageValue is the value scattered to neighbours.
	MessageValue(v graph.VertexID, state Word, totalOutDeg uint64, ctx *Context) Word
	// SendsOut reports whether scatters follow out-edges.
	SendsOut() bool
	// SendsIn reports whether scatters follow in-edges (reverse).
	SendsIn() bool
	// HaltOnQuiescence: stop when no vertex activates (WCC/BFS); when
	// false the run stops on MaxSteps or the residual threshold
	// (PageRank).
	HaltOnQuiescence() bool
}

// The built-in programs self-register; see registry.go for the Register
// and Lookup API external programs use.
func init() {
	Register("pagerank", func() Program { return PageRank{} })
	Register("wcc", func() Program { return WCC{} })
	Register("bfs", func() Program { return BFS{} })
	Register("sssp", func() Program { return SSSP{} })
	Register("degree", func() Program { return Degree{} })
}

// Damping is PageRank's damping factor, the conventional 0.85.
const Damping = 0.85

// PageRank is the iterative rank computation of §4.3: each superstep a
// vertex sums in-neighbour contributions, scales, and sends rank/outdeg
// to out-neighbours. Dangling mass is not redistributed; all engines and
// baselines in this repository share that convention so results compare
// bit-for-bit at the 1e-8 tolerance the paper checks.
type PageRank struct{}

// Name implements Program.
func (PageRank) Name() string { return "pagerank" }

// Init starts every vertex at 1/n.
func (PageRank) Init(_ graph.VertexID, ctx *Context) Word {
	n := ctx.N
	if n == 0 {
		n = 1
	}
	return FromF64(1 / float64(n))
}

// InitActive activates every vertex.
func (PageRank) InitActive(graph.VertexID, *Context) bool { return true }

// ZeroAgg is 0.0.
func (PageRank) ZeroAgg() Word { return FromF64(0) }

// Gather sums contributions.
func (PageRank) Gather(agg, msg Word) Word { return FromF64(agg.F64() + msg.F64()) }

// MergeAgg sums partial sums.
func (p PageRank) MergeAgg(a, b Word) Word { return p.Gather(a, b) }

// GathersFloatSum implements FloatSum.
func (PageRank) GathersFloatSum() {}

// Update applies the PageRank recurrence and always reactivates.
func (PageRank) Update(_ graph.VertexID, _, agg Word, _ bool, ctx *Context) (Word, bool) {
	n := ctx.N
	if n == 0 {
		n = 1
	}
	return FromF64((1-Damping)/float64(n) + Damping*agg.F64()), true
}

// Residual is the L1 rank change.
func (PageRank) Residual(old, new Word) float64 { return math.Abs(new.F64() - old.F64()) }

// MessageValue divides rank over the total out-degree.
func (PageRank) MessageValue(_ graph.VertexID, state Word, totalOutDeg uint64, _ *Context) Word {
	if totalOutDeg == 0 {
		return FromF64(0)
	}
	return FromF64(state.F64() / float64(totalOutDeg))
}

// SendsOut: PageRank pushes along out-edges only.
func (PageRank) SendsOut() bool { return true }

// SendsIn implements Program.
func (PageRank) SendsIn() bool { return false }

// HaltOnQuiescence: PageRank halts on steps/residual, not quiescence.
func (PageRank) HaltOnQuiescence() bool { return false }

// WCC computes weakly connected components by min-label propagation over
// both edge directions (§4.3): a vertex keeps the minimum label seen and
// only scatters improvements. In the incremental case labels persist, and
// the engine opens the run by announcing the batch-touched vertices' labels
// along the inserted copies (see Update).
type WCC struct{}

// Name implements Program.
func (WCC) Name() string { return "wcc" }

// Init labels each vertex with its own ID.
func (WCC) Init(v graph.VertexID, _ *Context) Word { return Word(v) }

// InitActive activates every vertex on a from-scratch run.
func (WCC) InitActive(graph.VertexID, *Context) bool { return true }

// ZeroAgg is the maximum label (identity for min).
func (WCC) ZeroAgg() Word { return Word(math.MaxUint64) }

// Gather keeps the minimum.
func (WCC) Gather(agg, msg Word) Word {
	if msg < agg {
		return msg
	}
	return agg
}

// MergeAgg keeps the minimum.
func (w WCC) MergeAgg(a, b Word) Word { return w.Gather(a, b) }

// Update adopts a smaller label and activates only on improvement; on
// superstep 0 of a from-scratch run every vertex scatters its initial
// label. An incremental run never calls it at step 0: the engine's seed
// announce sends the touched vertices' labels along the inserted copies
// instead, and from step 1 on only improvements travel.
func (WCC) Update(_ graph.VertexID, old, agg Word, haveMsgs bool, ctx *Context) (Word, bool) {
	if haveMsgs && agg < old {
		return agg, true
	}
	// First step of a from-scratch run: every vertex announces its label
	// even without improvement.
	return old, ctx.Step == 0
}

// Residual counts label changes.
func (WCC) Residual(old, new Word) float64 {
	if old != new {
		return 1
	}
	return 0
}

// MessageValue sends the label.
func (WCC) MessageValue(_ graph.VertexID, state Word, _ uint64, _ *Context) Word { return state }

// SendsOut implements Program.
func (WCC) SendsOut() bool { return true }

// SendsIn: components are weak, so labels flow against edges too.
func (WCC) SendsIn() bool { return true }

// HaltOnQuiescence implements Program.
func (WCC) HaltOnQuiescence() bool { return true }

// Unreached is the distance label of vertices not reached by a traversal.
const Unreached = Word(math.MaxUint64)

// BFS computes hop distance from Context.Source along out-edges.
type BFS struct{}

// Name implements Program.
func (BFS) Name() string { return "bfs" }

// Init labels the source 0 and everything else Unreached.
func (BFS) Init(v graph.VertexID, ctx *Context) Word {
	if v == ctx.Source {
		return 0
	}
	return Unreached
}

// InitActive activates only the source.
func (BFS) InitActive(v graph.VertexID, ctx *Context) bool { return v == ctx.Source }

// ZeroAgg is Unreached (identity for min).
func (BFS) ZeroAgg() Word { return Unreached }

// Gather keeps the minimum distance.
func (BFS) Gather(agg, msg Word) Word {
	if msg < agg {
		return msg
	}
	return agg
}

// MergeAgg keeps the minimum distance.
func (b BFS) MergeAgg(x, y Word) Word { return b.Gather(x, y) }

// Update adopts shorter distances; the source scatters at step 0 of a
// from-scratch run. An incremental run opens with the engine's seed
// announce along the inserted copies instead.
func (BFS) Update(v graph.VertexID, old, agg Word, haveMsgs bool, ctx *Context) (Word, bool) {
	if haveMsgs && agg < old {
		return agg, true
	}
	return old, ctx.Step == 0 && v == ctx.Source
}

// Residual counts distance changes.
func (BFS) Residual(old, new Word) float64 {
	if old != new {
		return 1
	}
	return 0
}

// MessageValue sends distance+1.
func (BFS) MessageValue(_ graph.VertexID, state Word, _ uint64, _ *Context) Word {
	if state == Unreached {
		return Unreached
	}
	return state + 1
}

// SendsOut implements Program.
func (BFS) SendsOut() bool { return true }

// SendsIn implements Program.
func (BFS) SendsIn() bool { return false }

// HaltOnQuiescence implements Program.
func (BFS) HaltOnQuiescence() bool { return true }

// ReadsSource implements SourceReader: the traversal starts at the source.
func (BFS) ReadsSource() {}

// SSSP computes single-source shortest paths with deterministic synthetic
// edge weights (derived from the endpoint IDs), exercising a non-uniform
// relaxation workload without a weighted input format.
type SSSP struct{}

// Weight returns the synthetic weight of edge (u,v): 1 + (u*31+v) mod 16.
// It is a pure function of the endpoints so every engine agrees on it.
func (SSSP) Weight(u, v graph.VertexID) uint64 {
	return 1 + (uint64(u)*31+uint64(v))%16
}

// Name implements Program.
func (SSSP) Name() string { return "sssp" }

// Init labels the source 0 and everything else Unreached.
func (SSSP) Init(v graph.VertexID, ctx *Context) Word {
	if v == ctx.Source {
		return 0
	}
	return Unreached
}

// InitActive activates only the source.
func (SSSP) InitActive(v graph.VertexID, ctx *Context) bool { return v == ctx.Source }

// ZeroAgg is Unreached.
func (SSSP) ZeroAgg() Word { return Unreached }

// Gather keeps the minimum tentative distance.
func (SSSP) Gather(agg, msg Word) Word {
	if msg < agg {
		return msg
	}
	return agg
}

// MergeAgg keeps the minimum tentative distance.
func (s SSSP) MergeAgg(x, y Word) Word { return s.Gather(x, y) }

// Update relaxes the distance; the source scatters at step 0 of a
// from-scratch run. An incremental run opens with the engine's seed
// announce along the inserted copies instead.
func (SSSP) Update(v graph.VertexID, old, agg Word, haveMsgs bool, ctx *Context) (Word, bool) {
	if haveMsgs && agg < old {
		return agg, true
	}
	return old, ctx.Step == 0 && v == ctx.Source
}

// Residual counts distance changes.
func (SSSP) Residual(old, new Word) float64 {
	if old != new {
		return 1
	}
	return 0
}

// MessageValue sends the base distance; the engine adds Weight per edge
// via the PerEdgeAdjuster interface.
func (SSSP) MessageValue(_ graph.VertexID, state Word, _ uint64, _ *Context) Word {
	return state
}

// AdjustPerEdge implements PerEdgeAdjuster: the value delivered along
// (u,v) is dist(u) + w(u,v).
func (s SSSP) AdjustPerEdge(u, v graph.VertexID, value Word) Word {
	if value == Unreached {
		return Unreached
	}
	return value + Word(s.Weight(u, v))
}

// SendsOut implements Program.
func (SSSP) SendsOut() bool { return true }

// SendsIn implements Program.
func (SSSP) SendsIn() bool { return false }

// HaltOnQuiescence implements Program.
func (SSSP) HaltOnQuiescence() bool { return true }

// ReadsSource implements SourceReader: distances are from the source.
func (SSSP) ReadsSource() {}

// PerEdgeAdjuster is an optional Program extension for algorithms whose
// message value depends on the specific edge (SSSP weights). Engines call
// AdjustPerEdge as a message traverses edge (u,v).
type PerEdgeAdjuster interface {
	AdjustPerEdge(u, v graph.VertexID, value Word) Word
}

// FloatSum is an optional Program extension for algorithms whose Gather
// and MergeAgg add float64 values (PageRank, PPR): SumAt folds their
// messages with float64 additions, in the same order, which gives Gather's
// bits, and an engine may merge two aggregates as one float64 addition.
type FloatSum interface {
	GathersFloatSum()
}

// IsFloatSum reports whether p is a FloatSum: an engine asks once per run
// or per frame, not per message.
func IsFloatSum(p Program) bool {
	_, ok := p.(FloatSum)
	return ok
}

// GatherAt folds vals[k], for each k in at in order, onto agg with p's
// Gather: an engine's fold of messages it holds by index.
func GatherAt(p Program, agg Word, vals []Word, at []uint32) Word {
	if IsFloatSum(p) {
		return SumAt(agg, vals, at)
	}
	for _, k := range at {
		agg = p.Gather(agg, vals[k])
	}
	return agg
}

// SumAt is GatherAt for a FloatSum program: vals[k], for each k in at in
// order, added onto agg as float64s.
func SumAt(agg Word, vals []Word, at []uint32) Word {
	f := agg.F64()
	for _, k := range at {
		f += vals[k].F64()
	}
	return FromF64(f)
}

// SourceReader is an optional Program extension for algorithms whose
// answer depends on Context.Source (BFS, SSSP, PPR): two runs of a program
// without it from different sources compute the same thing.
type SourceReader interface {
	ReadsSource()
}

// ReadsSource reports whether p's answer depends on the run's source.
func ReadsSource(p Program) bool {
	_, ok := p.(SourceReader)
	return ok
}

// Degree computes each vertex's total degree (in+out) in one superstep by
// counting arriving unit messages — a communication-bound microworkload.
type Degree struct{}

// Name implements Program.
func (Degree) Name() string { return "degree" }

// Init starts counts at zero.
func (Degree) Init(graph.VertexID, *Context) Word { return 0 }

// InitActive activates every vertex.
func (Degree) InitActive(graph.VertexID, *Context) bool { return true }

// ZeroAgg is zero.
func (Degree) ZeroAgg() Word { return 0 }

// Gather counts messages.
func (Degree) Gather(agg, msg Word) Word { return agg + msg }

// MergeAgg sums counts.
func (Degree) MergeAgg(a, b Word) Word { return a + b }

// Update stores the count; runs exactly two supersteps (scatter, count).
func (Degree) Update(_ graph.VertexID, old, agg Word, haveMsgs bool, ctx *Context) (Word, bool) {
	if ctx.Step == 0 {
		return old, true
	}
	if haveMsgs {
		return agg, false
	}
	return old, false
}

// Residual is zero; Degree halts on quiescence.
func (Degree) Residual(_, _ Word) float64 { return 0 }

// MessageValue sends a unit count.
func (Degree) MessageValue(graph.VertexID, Word, uint64, *Context) Word { return 1 }

// SendsOut implements Program.
func (Degree) SendsOut() bool { return true }

// SendsIn implements Program.
func (Degree) SendsIn() bool { return true }

// HaltOnQuiescence implements Program.
func (Degree) HaltOnQuiescence() bool { return true }
