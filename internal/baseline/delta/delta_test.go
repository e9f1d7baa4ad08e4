package delta

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/baseline/bsp"
	"elga/internal/gen"
	"elga/internal/graph"
)

// TestFullRunMatchesBSP checks the engine's from-scratch WCC and PageRank
// against the bsp baseline on an R-MAT graph.
func TestFullRunMatchesBSP(t *testing.T) {
	el := gen.RMAT(9, 4096, gen.Graph500Params(), 42).Dedupe()
	ref := bsp.New(el, 4)
	eng := New(el)

	t.Run("wcc", func(t *testing.T) {
		want := ref.Run(algorithm.WCC{}, bsp.Options{})
		got := eng.RunFull(algorithm.WCC{}, Options{})
		if !got.Converged {
			t.Fatal("delta WCC did not converge")
		}
		for v, w := range got.State {
			if want.State[v] != w {
				t.Fatalf("vertex %d: delta label %d, bsp label %d", v, w, want.State[v])
			}
		}
	})

	t.Run("pagerank", func(t *testing.T) {
		want := ref.Run(algorithm.PageRank{}, bsp.Options{MaxSteps: 15})
		got := eng.RunFull(algorithm.PageRank{}, Options{MaxSteps: 15})
		for v, w := range got.State {
			if d := w.F64() - want.State[v].F64(); d > 1e-12 || d < -1e-12 {
				t.Fatalf("vertex %d: delta rank %g, bsp rank %g", v, w.F64(), want.State[v].F64())
			}
		}
	})
}

// TestIncrementalWCCMatchesFullRecompute applies insert-only batches and
// checks the frontier-seeded result equals a from-scratch run over the
// final graph (insert-only WCC maintenance is exact: min-label
// propagation is monotone under edge additions).
func TestIncrementalWCCMatchesFullRecompute(t *testing.T) {
	el := gen.RMAT(9, 4096, gen.Graph500Params(), 7).Dedupe()
	split := len(el) * 9 / 10
	base, extra := el[:split], el[split:]

	eng := New(base)
	eng.RunFull(algorithm.WCC{}, Options{})

	for len(extra) > 0 {
		k := 16
		if k > len(extra) {
			k = len(extra)
		}
		res := eng.ApplyBatch(algorithm.WCC{}, extra[:k].Changes(), Options{})
		if !res.Converged {
			t.Fatal("incremental WCC did not converge")
		}
		if res.Frontier == 0 && res.Steps > 1 {
			t.Fatal("empty frontier but multi-step run")
		}
		extra = extra[k:]
	}

	want := New(el).RunFull(algorithm.WCC{}, Options{})
	got := eng.state
	for v, w := range want.State {
		if got[v] != w {
			t.Fatalf("vertex %d: incremental label %d, full label %d", v, got[v], w)
		}
	}
}

// TestNoopBatchIsFree asserts an all-duplicate batch yields an empty
// frontier and a run that stops immediately.
func TestNoopBatchIsFree(t *testing.T) {
	el := graph.EdgeList{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	eng := New(el)
	eng.RunFull(algorithm.WCC{}, Options{})
	res := eng.ApplyBatch(algorithm.WCC{}, el.Changes(), Options{})
	if res.Frontier != 0 {
		t.Fatalf("duplicate inserts produced frontier %d", res.Frontier)
	}
	if !res.Converged || res.Steps > 1 {
		t.Fatalf("no-op batch ran %d steps", res.Steps)
	}
}

// TestIncrementalTraversalSeesInsertedEdges extends the path 1→2→3 (and the
// unreached 10→11) by 3→4 and 3→10: the batch's inserted copies must carry
// the source's distances on to 4, 10 and 11, for BFS and for SSSP.
func TestIncrementalTraversalSeesInsertedEdges(t *testing.T) {
	base := graph.EdgeList{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 10, Dst: 11}}
	batch := graph.EdgeList{{Src: 3, Dst: 4}, {Src: 3, Dst: 10}}
	for _, prog := range []algorithm.Program{algorithm.BFS{}, algorithm.SSSP{}} {
		t.Run(prog.Name(), func(t *testing.T) {
			eng := New(base)
			opts := Options{Source: 1}
			eng.RunFull(prog, opts)
			res := eng.ApplyBatch(prog, batch.Changes(), opts)
			if !res.Converged {
				t.Fatal("incremental run did not converge")
			}
			want := algorithm.Run(prog, append(append(graph.EdgeList{}, base...), batch...), algorithm.RunOptions{Source: 1})
			for _, v := range []graph.VertexID{4, 10, 11} {
				if got := res.State[v]; got != want.State[v] || got == algorithm.Unreached {
					t.Fatalf("vertex %d: incremental %d, reference %d", v, got, want.State[v])
				}
			}
		})
	}
}
