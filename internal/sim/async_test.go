package sim_test

import (
	"slices"
	"testing"

	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/sim"
)

// TestAsyncMatchesReference drives the asynchronous engine under WCC, BFS and
// SSSP, whose messages are adjusted per edge: from scratch, then
// incrementally after a streamed batch of 64 inserts, which the agents keep
// in their stores' tails, so the scatter walks the routed adjacency for whole
// runs and the cursor for edited ones. Under splitConfig the hubs are split
// and their replicas gossip. Every run must answer as algorithm.Run does, and
// each case, run twice, must send the same frames.
func TestAsyncMatchesReference(t *testing.T) {
	configs := []struct {
		name string
		cfg  func() config.Config
	}{{"unsplit", testConfig}, {"split", splitConfig}}
	for _, algo := range []string{"wcc", "bfs", "sssp"} {
		for _, tc := range configs {
			t.Run(algo+"/"+tc.name, func(t *testing.T) {
				replay(t, func() map[string]int {
					held, fresh := incrementalGraph(5)
					batch := fresh[:64]
					c := boot(t, sim.NewWorld(), 3, tc.cfg())
					c.apply(held.Changes())
					c.algo(client.RunSpec{Algo: algo, Async: true, FromScratch: true})
					c.check(algo, held, 0)
					c.apply(batch.Changes())
					c.algo(client.RunSpec{Algo: algo, Async: true})
					c.check(algo, slices.Concat(held, batch), 0)
					return c.frames()
				})
			})
		}
	}
}
