package graph_test

import (
	"testing"

	"elga/internal/gen"
	"elga/internal/graph"
)

// TestCSRFootprintBelowMapStore builds an R-MAT graph, both directions the
// way agents hold copies, into a compacted Store and into the MapStore
// reference through the same inserts, and checks the CSR store's
// bytes/edge estimate is the smaller of the two. Both stores count bytes
// by the same rules, so this pins the footprint claim DESIGN.md makes.
func TestCSRFootprintBelowMapStore(t *testing.T) {
	el := gen.RMAT(12, 8<<12, gen.Graph500Params(), 1234).Dedupe()
	cs, ms := graph.NewStore(), graph.NewMapStore()
	for _, e := range el {
		for _, dir := range []graph.Dir{graph.Out, graph.In} {
			cs.AddEdge(e.Src, e.Dst, dir)
			ms.AddEdge(e.Src, e.Dst, dir)
		}
	}
	cs.Compact()
	if cs.NumEdgeCopies() != ms.NumEdgeCopies() || cs.NumEdgeCopies() != 2*len(el) {
		t.Fatalf("edge copies: csr %d, map %d, want %d", cs.NumEdgeCopies(), ms.NumEdgeCopies(), 2*len(el))
	}
	csr, mp := cs.BytesPerEdge(), ms.BytesPerEdge()
	t.Logf("rmat-12: %d copies, csr %.1f B/copy, map %.1f B/copy", cs.NumEdgeCopies(), csr, mp)
	if csr >= mp {
		t.Fatalf("csr store takes %.1f B/copy, the map reference %.1f", csr, mp)
	}
}
