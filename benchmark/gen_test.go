package main

import (
	"testing"

	"elga/internal/graph"
)

// batchEdges views a batch as an edge list (for hashing).
func batchEdges(b graph.Batch) graph.EdgeList {
	el := make(graph.EdgeList, len(b))
	for i, c := range b {
		el[i] = graph.Edge{Src: c.Src, Dst: c.Dst}
	}
	return el
}

// inputsHash digests every input the generators make from one seed.
func inputsHash(sc scale, seed int64) []uint64 {
	el := rmatGraph(sc, seed)
	grid, source, _ := gridGraph(sc.GridSide, seed)
	batches, remaining := streamBatches(el, sc.StreamBatches, sc.StreamBatch, seed)
	var streamed graph.EdgeList
	for _, b := range batches {
		streamed = append(streamed, batchEdges(b)...)
	}
	cg := newChurnGen(sc, el, seed)
	churned := append(batchEdges(cg.next(sc.ChurnBatch)), batchEdges(cg.next(sc.ChurnBatch))...)
	return []uint64{edgeHash(el), edgeHash(grid), uint64(source), edgeHash(remaining), edgeHash(streamed), edgeHash(churned), edgeHash(cg.live)}
}

func TestSameSeedSameInputs(t *testing.T) {
	sc := scales["smoke"]
	a, b, other := inputsHash(sc, 3), inputsHash(sc, 3), inputsHash(sc, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("input %d: seed 3 hashed %#x then %#x", i, a[i], b[i])
		}
		if a[i] == other[i] {
			t.Errorf("input %d: seeds 3 and 4 both hashed %#x", i, a[i])
		}
	}
}

// TestChurnBatchesSucceed: deletes come from the live set, inserts from
// the absent set, no edge twice in a batch — so no change can fail.
func TestChurnBatchesSucceed(t *testing.T) {
	sc := scales["smoke"]
	el := rmatGraph(sc, 5)
	cg := newChurnGen(sc, el, 5)
	live := map[graph.Edge]bool{}
	for _, e := range el {
		live[e] = true
	}
	for round := 0; round < 20; round++ {
		seen := map[graph.Edge]bool{}
		for _, c := range cg.next(sc.ChurnBatch) {
			e := graph.Edge{Src: c.Src, Dst: c.Dst}
			if seen[e] {
				t.Fatalf("round %d: edge %v twice in one batch", round, e)
			}
			seen[e] = true
			if want := c.Action == graph.Delete; live[e] != want {
				t.Fatalf("round %d: %v of edge %v, live=%v", round, c.Action, e, live[e])
			}
			live[e] = c.Action == graph.Insert
		}
		n := 0
		for _, l := range live {
			if l {
				n++
			}
		}
		if n != len(cg.live) {
			t.Fatalf("round %d: generator tracks %d live edges, replay has %d", round, len(cg.live), n)
		}
	}
}

// TestCountersRepeat: with the operation count fixed (smoke scale), the
// counters a later change may rest a claim on repeat exactly across runs.
func TestCountersRepeat(t *testing.T) {
	exact := map[string][]string{
		"pagerank-static": {"agent.msgs_local_per_step", "agent.msgs_remote_per_step", "agent.remote_bytes_per_step", "graph.bytes_per_edge_copy", "graph.compactions"},
		// Under churn the store's footprint and compaction count depend on
		// the order migration shipments arrive in, so they do not repeat.
		"churn-elastic": {"agent.moved_fraction", "agent.migrated_copies_per_join"},
	}
	for name, metrics := range exact {
		w, _ := findWorkload(name)
		var runs [2]map[string]float64
		for i := range runs {
			_, samples, err := measure(w, scales["smoke"], options{seed: 11, seconds: 0.2, trace: 1, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs[i] = map[string]float64{}
			for _, s := range samples {
				runs[i][s.Name] = s.Value
			}
		}
		for _, m := range metrics {
			if runs[0][m] != runs[1][m] || runs[0][m] == 0 {
				t.Errorf("%s: %s read %v then %v", name, m, runs[0][m], runs[1][m])
			}
		}
	}
}
