package graph_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"elga/internal/gen"
	"elga/internal/graph"
)

// TestSealedLayoutIsAFunctionOfTheCalls feeds two stores the same calls —
// inserts, deletes, runs, dropped vertices, pins — and compacts both: every
// vertex's sealed runs must sit at the same offsets in each, so whatever is
// kept parallel to a sealed array lines up the same way in every process.
func TestSealedLayoutIsAFunctionOfTheCalls(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		stores := [2]*graph.Store{graph.NewStore(), graph.NewStore()}
		for i, s := range stores {
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 2000; op++ {
				u, v := graph.VertexID(rng.Intn(256)), graph.VertexID(rng.Intn(256))
				dir := graph.Dir(rng.Intn(2))
				switch rng.Intn(8) {
				case 0, 1, 2:
					s.AddEdge(u, v, dir)
				case 3:
					s.RemoveEdge(u, v, dir)
				case 4:
					s.AddRun(u, dir, []graph.VertexID{v, v + 300, v + 600})
				case 5:
					s.DropVertex(u)
				case 6:
					s.Pin(u)
				case 7:
					s.Unpin(u)
				}
			}
			s.Compact()
			if i == 1 && s.NumVertices() < 100 {
				t.Fatalf("seed %d: %d vertices: the script leaves too few to tell", seed, s.NumVertices())
			}
		}
		var a, b graph.VertexRuns
		for _, v := range stores[0].VertexList() {
			stores[0].RunsInto(&a, v)
			stores[1].RunsInto(&b, v)
			if a.Off != b.Off || a.Deg != b.Deg {
				t.Fatalf("seed %d: vertex %d sealed at %v (degrees %v) in one store, %v (%v) in the other",
					seed, v, a.Off, a.Deg, b.Off, b.Deg)
			}
		}
	}
}

// TestMemoryBytesPricesTheLayout builds R-MAT-12 in both directions, the way
// agents hold copies, and compacts it: MemoryBytes must be within 15 % of
// the heap the store holds, measured as the live-heap growth between a
// collection before the build and one after, and the records, index and
// flags together must cost at most 40 B a vertex.
func TestMemoryBytesPricesTheLayout(t *testing.T) {
	el := gen.RMAT(12, 8<<12, gen.Graph500Params(), 1234).Dedupe()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	s := graph.NewStore()
	for _, e := range el {
		s.AddEdge(e.Src, e.Dst, graph.Out)
		s.AddEdge(e.Src, e.Dst, graph.In)
	}
	s.Compact()
	held := float64(heap() - before)
	priced := float64(s.MemoryBytes())
	runtime.KeepAlive(s)
	runtime.KeepAlive(el) // live across both readings, like the store's inputs
	perVertex := (priced - 8*float64(s.NumEdgeCopies())) / float64(s.NumVertices())
	t.Logf("rmat-12: %d vertices, %d copies; MemoryBytes %.0f B, heap growth %.0f B (%+.1f %%); %.1f B a vertex",
		s.NumVertices(), s.NumEdgeCopies(), priced, held, 100*(priced-held)/held, perVertex)
	if priced < 0.85*held || priced > 1.15*held {
		t.Fatalf("MemoryBytes %.0f B, the heap holds %.0f B", priced, held)
	}
	if perVertex > 40 {
		t.Fatalf("%.1f B a vertex beyond the sealed arrays, want at most 40", perVertex)
	}
}

// BenchmarkStoreRunsInto reads one vertex's runs at a time, in shuffled
// order, from a compacted store of 3 000 vertices (an agent's share of the
// pagerank-static workload, cache-resident) and of 1 M (not).
func BenchmarkStoreRunsInto(b *testing.B) {
	for _, n := range []int{3000, 1 << 20} {
		b.Run(fmt.Sprintf("vertices=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := graph.NewStore()
			keys := make([]graph.VertexID, n)
			for i := range keys {
				keys[i] = graph.VertexID(rng.Int63n(1 << 40))
				s.AddRun(keys[i], graph.Out, []graph.VertexID{keys[i] + 1})
			}
			s.Compact()
			rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			var r graph.VertexRuns
			deg, k := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunsInto(&r, keys[k])
				deg += r.Deg[graph.Out]
				if k++; k == n {
					k = 0
				}
			}
			if deg != b.N {
				b.Fatalf("read %d out-copies over %d vertices, want one each", deg, b.N)
			}
		})
	}
}
