package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/sim"
)

// incrementalGraph is an R-MAT graph of scale 8 split in two: the half loaded
// first and the batch that follows.
func incrementalGraph(seed int64) (held, batch graph.EdgeList) {
	el := gen.RMAT(8, 1024, gen.Graph500Params(), seed).Dedupe()
	return el[:len(el)/2], el[len(el)/2:]
}

// TestIncrementalRunContinuesOnlyItsOwnState: an incremental run continues
// the agents' vertex values only if the run that left them was the same
// program from the same source, converged, and no delete came since. Each
// sequence below leaves values that fail one of those, then applies a batch
// and runs incrementally: the answer must equal algorithm.Run over the held
// edges, and the run must say it recomputed.
//   - truncated: a converged run, the batch, an incremental run cut after one
//     superstep, then the incremental run checked;
//   - truncated-scratch: a from-scratch run cut after two supersteps, then
//     the batch;
//   - other-program: the program and another from scratch, the batch, then
//     the other incrementally, so the values are the other's;
//   - new-source: a run from vertex 0, the batch, then the run checked from
//     another source. WCC reads no source, so its values are still its own:
//     that run must continue them and say it did not recompute.
func TestIncrementalRunContinuesOnlyItsOwnState(t *testing.T) {
	other := map[string]string{"wcc": "bfs", "bfs": "wcc", "sssp": "wcc"}
	for _, algo := range []string{"wcc", "bfs", "sssp"} {
		prog, err := algorithm.New(algo)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			held, batch := incrementalGraph(seed)
			all := slices.Concat(held, batch)
			scratch := client.RunSpec{Algo: algo, FromScratch: true}
			cases := []struct {
				name   string
				source graph.VertexID
				// before brings the cluster, holding held, to the checked run
				// and reports whether it left unconverged values.
				before func(c *cluster) bool
			}{
				{"truncated", 0, func(c *cluster) bool {
					c.algo(scratch)
					c.apply(batch.Changes())
					return !c.runSpec(client.RunSpec{Algo: algo, MaxSteps: 1}, 0).Converged
				}},
				{"truncated-scratch", 0, func(c *cluster) bool {
					cut := c.runSpec(client.RunSpec{Algo: algo, FromScratch: true, MaxSteps: 2}, 0)
					c.apply(batch.Changes())
					return !cut.Converged
				}},
				{"other-program", 0, func(c *cluster) bool {
					c.algo(scratch)
					c.algo(client.RunSpec{Algo: other[algo], FromScratch: true})
					c.apply(batch.Changes())
					c.algo(client.RunSpec{Algo: other[algo]})
					return true
				}},
				{"new-source", batch[0].Src, func(c *cluster) bool {
					c.algo(scratch)
					c.apply(batch.Changes())
					return batch[0].Src != 0 && algorithm.ReadsSource(prog)
				}},
			}
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/%s/seed-%d", algo, tc.name, seed), func(t *testing.T) {
					c := boot(t, sim.NewWorld(), 3, testConfig())
					c.apply(held.Changes())
					foreign := tc.before(c)
					st := c.algo(client.RunSpec{Algo: algo, Source: tc.source})
					c.check(algo, all, tc.source)
					if foreign && !st.Recomputed {
						t.Fatal("the incremental run continued values it does not own, and says it did not recompute")
					}
					if tc.name == "new-source" && !foreign && st.Recomputed {
						t.Fatal("a new source made a program that reads none recompute values it owns")
					}
				})
			}
		}
	}
}

// TestIncrementalRunContinuesItsOwnConvergedState is the wcc-stream shape: a
// from-scratch run, then insert-only batches each followed by an unbounded
// incremental run of the same program from the same source. Every one
// continues the values it owns — Recomputed stays false — and answers as
// algorithm.Run does.
func TestIncrementalRunContinuesItsOwnConvergedState(t *testing.T) {
	for _, algo := range []string{"wcc", "bfs", "sssp"} {
		t.Run(algo, func(t *testing.T) {
			held, fresh := incrementalGraph(4)
			c := boot(t, sim.NewWorld(), 3, testConfig())
			c.apply(held.Changes())
			c.algo(client.RunSpec{Algo: algo, FromScratch: true})
			for round := 0; round < 3; round++ {
				ins := fresh[:64]
				fresh, held = fresh[64:], append(held, ins...)
				c.apply(ins.Changes())
				if st := c.algo(client.RunSpec{Algo: algo}); st.Recomputed {
					t.Fatalf("round %d: an insert-only batch after a converged run of the same program recomputed", round)
				}
				c.check(algo, held, 0)
			}
		})
	}
}
