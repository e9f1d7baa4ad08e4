package sim_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"elga/internal/agent"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/sim"
)

// TestDeleteRacesMigration loads R-MAT-8 into three agents, then one agent
// leaves gracefully or a fourth joins, and as soon as the client's and the
// streamer's views show the change, a sealed batch deletes a tenth of the
// edges. Every frame is delayed by up to 1 ms, links staying FIFO, so a
// delete routed under the new view can reach the new owner of its copy ahead
// of the old owner's migration shipment. The delete must still take: WCC,
// BFS and SSSP answer as algorithm.Run does over the held edges, and without
// split vertices the agents hold exactly two copies per held edge.
func TestDeleteRacesMigration(t *testing.T) {
	configs := []struct {
		name string
		cfg  func() config.Config
	}{{"unsplit", testConfig}, {"split", splitConfig}}
	for _, change := range []string{"leave", "join"} {
		for _, tc := range configs {
			t.Run(change+"/"+tc.name, func(t *testing.T) {
				for seed := int64(1); seed <= 64; seed++ {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						deleteRacesMigration(t, seed, change, tc.cfg(), tc.name == "unsplit")
					})
				}
			})
		}
	}
}

// TestMigrationReplays runs TestDeleteRacesMigration's schedule twice per
// seed: every endpoint must send the same frames, by type, and the world
// must end at the same virtual instant. A send made in map order would make
// the chaos draws that follow it, and so the seed, differ between runs.
func TestMigrationReplays(t *testing.T) {
	configs := []struct {
		name string
		cfg  func() config.Config
	}{{"unsplit", testConfig}, {"split", splitConfig}}
	for _, change := range []string{"leave", "join"} {
		for _, tc := range configs {
			t.Run(change+"/"+tc.name, func(t *testing.T) {
				for seed := int64(1); seed <= 16; seed++ {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						var ends [2]time.Duration
						k := 0
						replay(t, func() map[string]int {
							frames, end := deleteRacesMigration(t, seed, change, tc.cfg(), tc.name == "unsplit")
							ends[k], k = end, k+1
							return frames
						})
						if ends[0] != ends[1] {
							t.Fatalf("the replay ended at %v, the first run at %v", ends[1], ends[0])
						}
					})
				}
			})
		}
	}
}

// deleteRacesMigration runs one seed of TestDeleteRacesMigration and returns
// the frames each endpoint sent, by type, and the virtual time it took.
func deleteRacesMigration(t *testing.T, seed int64, change string, cfg config.Config, unsplit bool) (map[string]int, time.Duration) {
	defer func() {
		if t.Failed() {
			t.Logf("rerun: go test -run '^%s$' ./internal/sim/", t.Name())
		}
	}()
	w := sim.NewWorld()
	start := w.Now()
	w.Chaos(seed, 0, 0, time.Millisecond)
	c := boot(t, w, 3, cfg)
	el := gen.RMAT(8, 1024, gen.Graph500Params(), 3).Dedupe()
	c.apply(el.Changes())
	switch change {
	case "leave":
		if err := c.agents[1].Leave(); err != nil {
			t.Fatal(err)
		}
		c.agents = slices.Delete(c.agents, 1, 2)
	case "join":
		i := len(c.agents)
		ep := w.Endpoint(agentAddr(i))
		c.eps = append(c.eps, ep)
		a := agent.New(agent.Options{Config: cfg, MasterAddr: masterAddr, DirIndex: i, Metrics: c.reg}, ep)
		ep.Serve(a.Handle)
		a.Boot()
		c.agents = append(c.agents, a)
	}
	c.run(func() bool { return c.cl.NumAgents() == len(c.agents) && c.st.Epoch() == c.cl.Epoch() })
	var dels graph.Batch
	var held graph.EdgeList
	for i, e := range el {
		if i%10 == 3 {
			dels = append(dels, graph.Change{Action: graph.Delete, Src: e.Src, Dst: e.Dst})
		} else {
			held = append(held, e)
		}
	}
	c.apply(dels)
	if unsplit {
		copies := 0
		for _, a := range c.agents {
			copies += a.EdgeCopies()
		}
		if copies != 2*len(held) {
			t.Fatalf("the agents hold %d edge copies, want %d: two per held edge", copies, 2*len(held))
		}
	}
	source := el[0].Src
	for _, algo := range []string{"wcc", "bfs", "sssp"} {
		c.algo(client.RunSpec{Algo: algo, Source: source, FromScratch: true})
		c.check(algo, held, source)
	}
	return c.frames(), w.Now().Sub(start)
}
