package algorithm

import (
	"math"

	"elga/internal/graph"
)

// PPR is personalized PageRank: the teleport mass concentrates on
// Context.Source instead of spreading uniformly, ranking vertices by
// proximity to the source. It exercises the same communication pattern as
// PageRank with a non-uniform stationary distribution — a natural
// extension workload for the engine (the paper's §4.3 calls studying
// algorithms with different bottlenecks important future work).
type PPR struct{}

func init() { Register("ppr", func() Program { return PPR{} }) }

// Name implements Program.
func (PPR) Name() string { return "ppr" }

// Init starts all mass at the source.
func (PPR) Init(v graph.VertexID, ctx *Context) Word {
	if v == ctx.Source {
		return FromF64(1)
	}
	return FromF64(0)
}

// InitActive activates every vertex (all participate each round).
func (PPR) InitActive(graph.VertexID, *Context) bool { return true }

// ZeroAgg is 0.0.
func (PPR) ZeroAgg() Word { return FromF64(0) }

// Gather sums contributions.
func (PPR) Gather(agg, msg Word) Word { return FromF64(agg.F64() + msg.F64()) }

// MergeAgg sums partial sums.
func (p PPR) MergeAgg(a, b Word) Word { return p.Gather(a, b) }

// GathersFloatSum implements FloatSum.
func (PPR) GathersFloatSum() {}

// Update applies the personalized recurrence: teleport mass goes to the
// source only.
func (PPR) Update(v graph.VertexID, _, agg Word, _ bool, ctx *Context) (Word, bool) {
	teleport := 0.0
	if v == ctx.Source {
		teleport = 1 - Damping
	}
	return FromF64(teleport + Damping*agg.F64()), true
}

// Residual is the L1 change.
func (PPR) Residual(old, new Word) float64 { return math.Abs(new.F64() - old.F64()) }

// MessageValue divides rank over out-degree.
func (PPR) MessageValue(_ graph.VertexID, state Word, totalOutDeg uint64, _ *Context) Word {
	if totalOutDeg == 0 {
		return FromF64(0)
	}
	return FromF64(state.F64() / float64(totalOutDeg))
}

// SendsOut implements Program.
func (PPR) SendsOut() bool { return true }

// SendsIn implements Program.
func (PPR) SendsIn() bool { return false }

// HaltOnQuiescence: PPR halts on steps/residual like PageRank.
func (PPR) HaltOnQuiescence() bool { return false }

// ReadsSource implements SourceReader: teleport mass goes to the source.
func (PPR) ReadsSource() {}
