package route

import (
	"testing"

	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/wire"
)

// benchRouter returns a router over four agents and the R-MAT scale-14
// edge list of the pagerank-static workload, with every endpoint already
// looked up once.
func benchRouter(b *testing.B) (*Router, graph.EdgeList) {
	b.Helper()
	cfg := config.Default()
	el := gen.RMAT(14, 131072, gen.Graph500Params(), 1)
	sk := cfg.NewSketch()
	for _, e := range el {
		sk.Add(uint64(e.Src))
		sk.Add(uint64(e.Dst))
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	view := &wire.View{Epoch: 1, N: uint64(el.NumVertices()), Sketch: data}
	for id := uint64(1); id <= 4; id++ {
		view.Agents = append(view.Agents, wire.AgentInfo{ID: id, Addr: "a"})
	}
	r := New(cfg)
	if _, err := r.Update(view); err != nil {
		b.Fatal(err)
	}
	for _, e := range el {
		r.EdgeOwner(e.Src, e.Dst)
		r.EdgeOwner(e.Dst, e.Src)
	}
	return r, el
}

// BenchmarkEdgeOwnerWarm is the per-message cost of Figure 3's lookup once
// the table holds the vertex: the hit path of a scatter.
func BenchmarkEdgeOwnerWarm(b *testing.B) {
	r, el := benchRouter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := el[i%len(el)]
		r.EdgeOwner(e.Dst, e.Src)
	}
}

// BenchmarkEdgeOwnerWarmParallel is the same hit path from concurrent
// goroutines; it scales only if a hit shares no written cache line.
func BenchmarkEdgeOwnerWarmParallel(b *testing.B) {
	r, el := benchRouter(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			e := el[i%len(el)]
			r.EdgeOwner(e.Dst, e.Src)
		}
	})
}

// BenchmarkRouteAfterMembershipChange is the cold path a join or a leave
// puts every participant on: each iteration installs a view whose membership
// differs from the last (four agents, then five, and back), which empties
// the route table, and looks every source vertex of the R-MAT scale-14 graph
// up once. It reports the cost per vertex, view install included.
func BenchmarkRouteAfterMembershipChange(b *testing.B) {
	cfg := config.Default()
	el := gen.RMAT(14, 131072, gen.Graph500Params(), 1)
	sk := cfg.NewSketch()
	seen := make(map[graph.VertexID]bool)
	var srcs []graph.VertexID
	for _, e := range el {
		sk.Add(uint64(e.Src))
		sk.Add(uint64(e.Dst))
		if !seen[e.Src] {
			seen[e.Src] = true
			srcs = append(srcs, e.Src)
		}
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	var views [2]*wire.View
	for i := range views {
		views[i] = &wire.View{N: uint64(el.NumVertices()), Sketch: data}
		for id := uint64(1); id <= uint64(4+i); id++ {
			views[i].Agents = append(views[i].Agents, wire.AgentInfo{ID: id, Addr: "a"})
		}
	}
	r := New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := views[i%2]
		v.Epoch = uint64(i + 1)
		if _, err := r.Update(v); err != nil {
			b.Fatal(err)
		}
		for _, u := range srcs {
			r.EdgeOwner(u, u)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(srcs)), "ns/vertex")
}
