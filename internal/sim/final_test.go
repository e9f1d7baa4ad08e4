package sim_test

import (
	"fmt"
	"testing"

	"elga/internal/agent"
	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/sim"
	"elga/internal/wire"
)

// splitConfig is testConfig with the hub of randomGraph split across the
// three agents, so the combine phase and value updates run too.
func splitConfig() config.Config {
	cfg := testConfig()
	cfg.ReplicationThreshold = 16
	return cfg
}

// sentByAgents sums the frames of type typ every agent has sent so far.
func (c *cluster) sentByAgents(typ wire.Type) int {
	n := 0
	for i := range c.agents {
		n += c.w.Sent(agentAddr(i), typ)
	}
	return n
}

// runSpec runs spec to its end, converged or not, and checks it took steps
// supersteps when steps is not 0.
func (c *cluster) runSpec(spec client.RunSpec, steps uint32) *wire.RunStats {
	c.t.Helper()
	st, err := c.cl.Run(spec)
	if err != nil {
		c.t.Fatal(err)
	}
	if steps != 0 && st.Steps != steps {
		c.t.Fatalf("%s ran %d supersteps, want %d", spec.Algo, st.Steps, steps)
	}
	return st
}

// joinDuring boots one more agent from inside agent 0's handling of its
// next Advance, so that the join reaches the coordinator while a run is
// going and lands at one of its superstep boundaries.
func (c *cluster) joinDuring(cfg config.Config) {
	i := len(c.agents)
	ep := c.w.Endpoint(agentAddr(i))
	c.eps = append(c.eps, ep)
	joiner := agent.New(agent.Options{Config: cfg, MasterAddr: masterAddr, DirIndex: i, Metrics: c.reg}, ep)
	ep.Serve(joiner.Handle)
	c.agents = append(c.agents, joiner)
	first, booted := c.agents[0], false
	c.eps[2].Serve(func(pkt *wire.Packet) bool { // agent 0's endpoint
		if !booted && pkt.Type == wire.TAdvance {
			booted = true
			joiner.Boot()
		}
		return first.Handle(pkt)
	})
}

// TestFinalSuperstepSendsNoMessages: on three agents with one worker each,
// the superstep a run's MaxSteps makes its last scatters nothing, since the
// coordinator halts after it and the agents drop every mailbox.
//
// PageRank over a graph whose hub is split sends no TVertexMsgs frame with
// MaxSteps 1 and, each superstep sending the same frames, with MaxSteps N
// exactly the frames of supersteps 0 to N-2; every superstep still sends
// its value updates, so the replicas answer with the final value, and the
// answers equal algorithm.Run with the same MaxSteps within 1e-8.
//
// BFS and WCC, truncated by a small MaxSteps and run to convergence, with
// and without an agent joining mid-run, answer as algorithm.Run with the
// same MaxSteps does, bit for bit.
func TestFinalSuperstepSendsNoMessages(t *testing.T) {
	el := randomGraph(60, 200, 8)
	t.Run("pagerank-frames", func(t *testing.T) {
		c := boot(t, sim.NewWorld(), 3, splitConfig())
		c.apply(el.Changes())
		msgs, updates := make([]int, 6), make([]int, 6)
		for n := uint32(1); n <= 5; n++ {
			vm, vu := c.sentByAgents(wire.TVertexMsgs), c.sentByAgents(wire.TValueUpdate)
			c.runSpec(client.RunSpec{Algo: "pagerank", MaxSteps: n, FromScratch: true}, n)
			msgs[n], updates[n] = c.sentByAgents(wire.TVertexMsgs)-vm, c.sentByAgents(wire.TValueUpdate)-vu
			c.chaosCheck(algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: n}, 1e-8)
		}
		t.Logf("TVertexMsgs frames per run of MaxSteps 1..5: %v; TValueUpdate: %v", msgs[1:], updates[1:])
		perStep := msgs[2] - msgs[1]
		if perStep == 0 || updates[1] == 0 {
			t.Fatalf("a superstep sends %d message frames and %d value-update frames: the test checks nothing",
				perStep, updates[1])
		}
		for n := 1; n <= 5; n++ {
			if want := (n - 1) * perStep; msgs[n] != want {
				t.Errorf("MaxSteps %d sent %d TVertexMsgs frames, want %d: %d supersteps of %d frames",
					n, msgs[n], want, n-1, perStep)
			}
			if want := n * updates[1]; updates[n] != want {
				t.Errorf("MaxSteps %d sent %d TValueUpdate frames, want %d: every superstep's", n, updates[n], want)
			}
		}
	})
	for _, algo := range []string{"bfs", "wcc"} {
		for _, join := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/join=%v", algo, join), func(t *testing.T) {
				cfg := splitConfig()
				c := boot(t, sim.NewWorld(), 3, cfg)
				c.apply(el.Changes())
				prog, err := algorithm.New(algo)
				if err != nil {
					t.Fatal(err)
				}
				source := graph.VertexID(0)
				for _, n := range []uint32{1, 2, 3, 0} { // 0: to convergence
					starts := c.w.Sent(coordAddr, wire.TAlgoStart)
					if join && n == 2 {
						c.joinDuring(cfg)
					}
					st := c.runSpec(client.RunSpec{Algo: algo, Source: source, MaxSteps: n, FromScratch: true}, n)
					if join && n == 2 {
						if resumed := c.w.Sent(coordAddr, wire.TAlgoStart) - starts; resumed <= 3 {
							t.Fatalf("the run announced itself %d times: the join did not land mid-run", resumed)
						}
						c.run(func() bool { return c.cl.NumAgents() == len(c.agents) })
					}
					if n == 0 && !st.Converged {
						t.Fatalf("%s did not converge in %d steps", algo, st.Steps)
					}
					c.chaosCheck(prog, el, algorithm.RunOptions{Source: source, MaxSteps: n}, 0)
				}
			})
		}
	}
}
