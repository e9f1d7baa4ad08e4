package gen

import (
	"math/rand"

	"elga/internal/graph"
)

// CommunityParams shape the planted-partition generator.
type CommunityParams struct {
	// N is the vertex count; vertices 0..N-1 are striped round-robin into
	// Communities blocks, so consecutive IDs land in different blocks and
	// hash placement cannot accidentally align with community structure.
	N int
	// Communities is the number of planted blocks.
	Communities int
	// Edges is the number of edge attempts (self-loops and duplicates are
	// dropped, so the result can be slightly smaller).
	Edges int
	// PIntra is the probability an edge stays inside its source's block;
	// the rest go to a uniformly random other block. 0.9 gives strongly
	// clustered communities, 1/Communities degrades to uniform.
	PIntra float64
}

// Community generates a planted-partition (stochastic block model) graph:
// most edges fall inside a vertex's block, a controlled fraction crosses
// blocks. It is the adversary of hash placement, which scatters each block
// across all agents, so almost every edge is cross-agent, while an ideal
// placement would make PIntra of them local. Deterministic in seed.
func Community(p CommunityParams, seed int64) graph.EdgeList {
	if p.N <= 0 || p.Communities <= 0 || p.Edges <= 0 {
		return nil
	}
	if p.Communities > p.N {
		p.Communities = p.N
	}
	rng := rand.New(rand.NewSource(seed))
	c := p.Communities
	el := make(graph.EdgeList, 0, p.Edges)
	for i := 0; i < p.Edges; i++ {
		u := rng.Intn(p.N)
		blk := u % c // round-robin striping: block = id mod c
		var v int
		if rng.Float64() < p.PIntra {
			// Same block: sample a member index, map back to a vertex ID.
			members := (p.N-blk-1)/c + 1
			v = blk + rng.Intn(members)*c
		} else {
			other := rng.Intn(c - 1)
			if other >= blk {
				other++
			}
			members := (p.N-other-1)/c + 1
			v = other + rng.Intn(members)*c
		}
		if u == v {
			continue
		}
		el = append(el, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return el.Dedupe()
}
