package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/sim"
	"elga/internal/wire"
)

// TestAsyncMatchesReference drives the asynchronous engine under WCC, BFS and
// SSSP, whose messages are adjusted per edge: from scratch, then
// incrementally after a streamed batch of 64 inserts, which the agents keep
// in their stores' tails, so the scatter walks the routed adjacency for whole
// runs and the cursor for edited ones. Under splitConfig the hubs are split
// and their replicas gossip. Every run must answer as algorithm.Run does, and
// each case, run twice, must send the same frames. Async frames and probe
// votes are acked, so against unacked ones the agents send one TAck frame more
// per async TVertexMsgs frame (19 to 49 more per case) and the coordinator 11
// more, one per probe vote; on this lossless schedule none is resent.
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
					c.faultFree()
					return c.frames()
				})
			})
		}
	}
}

// TestAsyncSurvivesDroppedFrame runs async WCC after losing the first
// TVertexMsgs frame to one agent, and async WCC and BFS while every frame is
// dropped with probability 3 %, once per seed, replayed. An async frame is
// acked: the protocol resends a lost one and drops a duplicate, so the
// quiescence sums balance and the run ends with the reference's answers.
func TestAsyncSurvivesDroppedFrame(t *testing.T) {
	t.Run("one-drop", func(t *testing.T) {
		held, _ := incrementalGraph(5)
		w := sim.NewWorld()
		c := boot(t, w, 3, testConfig())
		c.apply(held.Changes())
		w.Drop(wire.TVertexMsgs, agentAddr(1))
		c.algo(client.RunSpec{Algo: "wcc", Async: true, FromScratch: true})
		c.check("wcc", held, 0)
		if c.retransmits() == 0 {
			t.Fatal("the dropped frame was never resent")
		}
	})
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("chaos/seed=%d", seed), func(t *testing.T) {
			replay(t, func() map[string]int {
				w := sim.NewWorld()
				w.Chaos(seed, 0.03, 0, 0)
				c := boot(t, w, 3, chaosConfig())
				el := randomGraph(80, 300, 7)
				c.chaosApply(el.Changes())
				for _, algo := range []string{"wcc", "bfs"} {
					st, err := c.cl.RunWith(client.RunSpec{Algo: algo, Async: true, FromScratch: true}, chaosRun)
					if err != nil {
						t.Fatalf("%s: %v", algo, err)
					}
					if !st.Converged {
						t.Fatalf("%s did not converge under drops", algo)
					}
					prog, _ := algorithm.New(algo)
					c.chaosCheck(prog, el, algorithm.RunOptions{}, 0)
				}
				return c.frames()
			})
		})
	}
}
