package stinger

import (
	"testing"
	"testing/quick"

	"elga/internal/algorithm"
	"elga/internal/gen"
	"elga/internal/graph"
)

func TestInsertMaintainsComponents(t *testing.T) {
	g := New()
	g.InsertEdge(1, 2)
	g.InsertEdge(3, 4)
	if c, _ := g.Component(2); c != 1 {
		t.Errorf("comp(2) = %d", c)
	}
	if c, _ := g.Component(4); c != 3 {
		t.Errorf("comp(4) = %d", c)
	}
	g.InsertEdge(2, 3) // merge
	for _, v := range []graph.VertexID{1, 2, 3, 4} {
		if c, _ := g.Component(v); c != 1 {
			t.Errorf("comp(%d) = %d after merge, want 1", v, c)
		}
	}
	if g.NumEdges() != 3 || g.NumVertices() != 4 {
		t.Errorf("m=%d n=%d", g.NumEdges(), g.NumVertices())
	}
}

func TestDuplicateAndSelfLoopIgnored(t *testing.T) {
	g := New()
	if !g.InsertEdge(1, 2) {
		t.Fatal("first insert failed")
	}
	if g.InsertEdge(1, 2) || g.InsertEdge(2, 1) == true && g.NumEdges() != 1 {
		// (2,1) is the same undirected edge; hasEdge(2,1) finds it.
	}
	if g.InsertEdge(5, 5) {
		t.Error("self loop accepted")
	}
	if g.NumEdges() != 1 {
		t.Errorf("m = %d", g.NumEdges())
	}
}

func TestDeleteSplitsComponent(t *testing.T) {
	g := New()
	g.InsertEdge(0, 1)
	g.InsertEdge(1, 2)
	if !g.DeleteEdge(1, 2) {
		t.Fatal("delete failed")
	}
	if g.DeleteEdge(1, 2) {
		t.Error("double delete succeeded")
	}
	if c, _ := g.Component(2); c != 2 {
		t.Errorf("comp(2) = %d after split, want 2", c)
	}
	if c, _ := g.Component(0); c != 0 {
		t.Errorf("comp(0) = %d", c)
	}
}

func TestDeleteKeepsConnectedComponentTogether(t *testing.T) {
	g := New()
	// Cycle: removing one edge must not split.
	g.InsertEdge(0, 1)
	g.InsertEdge(1, 2)
	g.InsertEdge(2, 0)
	g.DeleteEdge(1, 2)
	for _, v := range []graph.VertexID{0, 1, 2} {
		if c, _ := g.Component(v); c != 0 {
			t.Errorf("comp(%d) = %d, want 0", v, c)
		}
	}
}

func TestBlockChaining(t *testing.T) {
	g := New()
	// More neighbors than one block holds.
	for i := 1; i <= 3*blockSize; i++ {
		g.InsertEdge(0, graph.VertexID(i))
	}
	count := 0
	g.neighbors(0, func(graph.VertexID) bool { count++; return true })
	if count != 3*blockSize {
		t.Errorf("neighbors = %d, want %d", count, 3*blockSize)
	}
}

func TestApplyBatch(t *testing.T) {
	g := New()
	b := graph.Batch{
		{Action: graph.Insert, Src: 1, Dst: 2},
		{Action: graph.Insert, Src: 1, Dst: 2}, // duplicate
		{Action: graph.Insert, Src: 2, Dst: 3},
		{Action: graph.Delete, Src: 1, Dst: 2},
	}
	if n := g.ApplyBatch(b); n != 3 {
		t.Errorf("applied %d, want 3", n)
	}
	if g.NumEdges() != 1 {
		t.Errorf("m = %d", g.NumEdges())
	}
}

// Component labels must always match min-label WCC on the same edges.
func TestMatchesWCCReference(t *testing.T) {
	el := gen.RMAT(9, 1500, gen.Graph500Params(), 11)
	g := New()
	for _, e := range el {
		g.InsertEdge(e.Src, e.Dst)
	}
	ref := algorithm.Run(algorithm.WCC{}, el, algorithm.RunOptions{})
	for v, want := range ref.State {
		got, ok := g.Component(v)
		if !ok {
			// Self-loop-only vertices are skipped by stinger.
			continue
		}
		if graph.VertexID(want) != got {
			t.Fatalf("comp(%d) = %d, reference %d", v, got, want)
		}
	}
}

// Property: after random insert/delete interleavings, components form a
// valid partition consistent with a fresh reference computation.
func TestComponentsConsistentProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		g := New()
		live := map[graph.Edge]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := graph.VertexID(raw[i]%16), graph.VertexID(raw[i+1]%16)
			if u == v {
				continue
			}
			e := graph.Edge{Src: u, Dst: v}
			er := graph.Edge{Src: v, Dst: u}
			if live[e] || live[er] {
				g.DeleteEdge(u, v)
				delete(live, e)
				delete(live, er)
			} else {
				g.InsertEdge(u, v)
				live[e] = true
			}
		}
		var el graph.EdgeList
		for e := range live {
			el = append(el, e)
		}
		ref := algorithm.Run(algorithm.WCC{}, el, algorithm.RunOptions{})
		for v, want := range ref.State {
			if got, ok := g.Component(v); ok && graph.VertexID(want) != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSingleEdgeInsert(b *testing.B) {
	el := gen.PreferentialAttachment(5000, 4, 12)
	g := New()
	for _, e := range el {
		g.InsertEdge(e.Src, e.Dst)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.VertexID(20000 + i)
		g.InsertEdge(u, graph.VertexID(i%5000))
	}
}
