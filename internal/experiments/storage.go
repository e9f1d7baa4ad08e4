package experiments

import (
	"fmt"
	"time"

	"elga/internal/algorithm"
	"elga/internal/baseline/delta"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/stats"
)

// StoragePerf is the storage experiment's record: the CSR+delta store's
// bytes/edge against the map-of-slices reference on the same R-MAT graph,
// plus the compaction count the build incurred. Reduction > 1 means the CSR store is smaller.
type StoragePerf struct {
	Graph           string
	EdgeCopies      int
	CSRBytesPerEdge float64
	MapBytesPerEdge float64
	Reduction       float64
	Compactions     uint64
}

// DeltaPerf is one full-vs-delta recompute comparison row: the same
// batches applied to two engines over the same graph, one re-running from
// scratch, one seeding from the Store.ApplyBatch frontier.
type DeltaPerf struct {
	Algo            string
	BatchSize       int
	Batches         int
	FullNsPerBatch  float64
	DeltaNsPerBatch float64
	Speedup         float64
	AvgFrontier     float64
	AvgSteps        float64
}

// MeasureStorage builds the R-MAT workload into both store
// implementations through the same insert path and compares footprints.
func MeasureStorage(s Scale) (*StoragePerf, error) {
	scale := 14
	if s == Quick {
		scale = 12
	}
	el := gen.RMAT(scale, 8<<scale, gen.Graph500Params(), 1234).Dedupe()
	cs := graph.NewStore()
	ms := graph.NewMapStore()
	for _, e := range el {
		// Both directions, the way agents hold copies.
		cs.AddEdge(e.Src, e.Dst, graph.Out)
		cs.AddEdge(e.Src, e.Dst, graph.In)
		ms.AddEdge(e.Src, e.Dst, graph.Out)
		ms.AddEdge(e.Src, e.Dst, graph.In)
	}
	cs.Compact() // steady state: the tail folded in
	csrBPE, mapBPE := cs.BytesPerEdge(), ms.BytesPerEdge()
	p := &StoragePerf{
		Graph:           fmt.Sprintf("rmat-%d-8", scale),
		EdgeCopies:      cs.NumEdgeCopies(),
		CSRBytesPerEdge: csrBPE,
		MapBytesPerEdge: mapBPE,
		Compactions:     cs.Compactions(),
	}
	if csrBPE > 0 {
		p.Reduction = mapBPE / csrBPE
	}
	return p, nil
}

// MeasureDeltaRecompute times full recompute against frontier-seeded
// delta recompute per batch, on the paper's dynamic R-MAT workload
// (sample a change set, stream it back in batches).
func MeasureDeltaRecompute(s Scale) ([]DeltaPerf, error) {
	scale, numBatches := 13, 12
	sizes := []int{1, 16, 256}
	if s == Quick {
		scale, numBatches = 11, 5
		sizes = []int{1, 64}
	}
	el := gen.RMAT(scale, 8<<scale, gen.Graph500Params(), 77).Dedupe()

	type algoCase struct {
		name string
		prog algorithm.Program
		opts delta.Options
	}
	cases := []algoCase{
		{"wcc", algorithm.WCC{}, delta.Options{}},
		{"pagerank", algorithm.PageRank{}, delta.Options{MaxSteps: 10, Epsilon: 1e-9}},
	}

	var out []DeltaPerf
	for _, ac := range cases {
		for _, size := range sizes {
			_, insertions, remaining := gen.SampleBatch(el, size*numBatches, int64(size))
			full := delta.New(remaining)
			inc := delta.New(remaining)
			full.RunFull(ac.prog, ac.opts)
			inc.RunFull(ac.prog, ac.opts)

			var fullNs, deltaNs, frontiers, steps []float64
			for b := 0; b < numBatches; b++ {
				batch := graph.Batch(insertions[b*size : (b+1)*size])

				// Full arm: apply the batch, discard the frontier, re-run
				// from scratch — what the pre-refactor engine did per batch.
				start := time.Now()
				full.Store().ApplyBatch(batch, graph.Out)
				full.Store().ApplyBatch(batch, graph.In)
				full.Store().TakeActive()
				full.RunFull(ac.prog, ac.opts)
				fullNs = append(fullNs, float64(time.Since(start).Nanoseconds()))

				// Delta arm: the frontier seeds the first superstep.
				res := inc.ApplyBatch(ac.prog, batch, ac.opts)
				deltaNs = append(deltaNs, float64(res.Elapsed.Nanoseconds()))
				frontiers = append(frontiers, float64(res.Frontier))
				steps = append(steps, float64(res.Steps))
			}
			row := DeltaPerf{
				Algo:            ac.name,
				BatchSize:       size,
				Batches:         numBatches,
				FullNsPerBatch:  stats.Mean(fullNs),
				DeltaNsPerBatch: stats.Mean(deltaNs),
				AvgFrontier:     stats.Mean(frontiers),
				AvgSteps:        stats.Mean(steps),
			}
			if row.DeltaNsPerBatch > 0 {
				row.Speedup = row.FullNsPerBatch / row.DeltaNsPerBatch
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Storage is the human-readable experiment wrapping both measurements:
// the bytes/edge comparison and the full-vs-delta recompute crossover.
func Storage(s Scale) (*Report, error) {
	r := &Report{
		ID:     "storage",
		Title:  "CSR+delta-log store: bytes/edge and frontier-seeded recompute",
		Header: []string{"metric", "algo", "batch", "full/map", "delta/csr", "gain", "frontier avg", "steps avg"},
	}
	sp, err := MeasureStorage(s)
	if err != nil {
		return nil, err
	}
	r.AddRow("bytes/edge ("+sp.Graph+")", "-", "-",
		fmt.Sprintf("%.1f", sp.MapBytesPerEdge),
		fmt.Sprintf("%.1f", sp.CSRBytesPerEdge),
		fmt.Sprintf("%.2fx", sp.Reduction), "-",
		fmt.Sprintf("%d compactions", sp.Compactions))
	rows, err := MeasureDeltaRecompute(s)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		r.AddRow("ns/batch", row.Algo, fmt.Sprintf("%d", row.BatchSize),
			fmtDur(row.FullNsPerBatch/1e9), fmtDur(row.DeltaNsPerBatch/1e9),
			fmt.Sprintf("%.1fx", row.Speedup),
			fmt.Sprintf("%.1f", row.AvgFrontier),
			fmt.Sprintf("%.1f", row.AvgSteps))
	}
	r.AddNote("delta recompute seeds the first superstep from the Store.ApplyBatch frontier instead of activating all vertices; the win is largest for small batches, the paper's near-real-time regime")
	return r, nil
}
