package sim_test

import (
	"slices"
	"testing"

	"elga/internal/agent"
	"elga/internal/client"
	"elga/internal/gen"
	"elga/internal/sim"
	"elga/internal/wire"
)

// TestMembershipChangeDuringSealIsApplied: a leave or a join that reaches
// the coordinator while a seal round is open is applied once the seal
// closes, with nothing else asked of the cluster. An agent calls Leave from
// inside its handling of the seal's TBatchOpen, or a fourth agent boots from
// inside agent 0's; after the seal the world runs idle until the client and the
// streamer route by the changed membership, within a virtual minute. The
// change takes the one TLeave or TJoin that announced it, not a resend, and
// WCC then answers as algorithm.Run does.
func TestMembershipChangeDuringSealIsApplied(t *testing.T) {
	el := gen.RMAT(7, 512, gen.Graph500Params(), 5).Dedupe()
	for _, change := range []string{"leave", "join"} {
		t.Run(change, func(t *testing.T) {
			cfg := testConfig()
			c := boot(t, sim.NewWorld(), 3, cfg)
			c.apply(el[:len(el)/2].Changes())
			var during func()
			var from string
			var announce wire.Type
			host := 0 // the agent whose TBatchOpen fires the change
			a := c.agents[host]
			switch change {
			case "leave":
				host = 2
				a = c.agents[host]
				from, announce = agentAddr(host), wire.TLeave
				during = func() {
					if err := a.Leave(); err != nil {
						t.Error(err)
					}
				}
				c.agents = slices.Delete(c.agents, 2, 3)
			case "join":
				i := len(c.agents)
				ep := c.w.Endpoint(agentAddr(i))
				c.eps = append(c.eps, ep)
				joiner := agent.New(agent.Options{Config: cfg, MasterAddr: masterAddr, DirIndex: i, Metrics: c.reg}, ep)
				ep.Serve(joiner.Handle)
				from, announce = agentAddr(i), wire.TJoin
				during = func() { joiner.Boot() }
				c.agents = append(c.agents, joiner)
			}
			fired := false
			c.eps[2+host].Serve(func(pkt *wire.Packet) bool { // the host's endpoint
				if !fired && pkt.Type == wire.TBatchOpen {
					fired = true
					during()
				}
				return a.Handle(pkt)
			})
			c.stream(el[len(el)/2:].Changes())
			c.seal()
			if !fired {
				t.Fatalf("the seal sent %s no TBatchOpen", agentAddr(host))
			}
			c.run(func() bool { return c.cl.NumAgents() == len(c.agents) && c.st.Epoch() == c.cl.Epoch() })
			if n := c.w.Sent(from, announce); n != 1 {
				t.Fatalf("%s sent %d %v frames: the change waited for a resend", from, n, announce)
			}
			c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
			c.check("wcc", el, 0)
		})
	}
}

// TestResentAlgoDoneKeepsNextRunsAdvance: run 1's TAlgoDone to one agent
// and run 2's TAlgoStart to the same agent are lost once each, so run 2's
// step-0 Advance reaches that agent first and is parked, and the resent
// TAlgoDone of run 1 arrives before the resent TAlgoStart. The parked
// Advance belongs to run 2 and must survive run 1's teardown: run 2
// finishes, and its answers equal algorithm.Run's.
func TestResentAlgoDoneKeepsNextRunsAdvance(t *testing.T) {
	el := gen.RMAT(7, 512, gen.Graph500Params(), 7).Dedupe()
	c := boot(t, sim.NewWorld(), 3, testConfig())
	c.apply(el.Changes())
	victim, armed := c.agents[1], false
	c.eps[3].Serve(func(pkt *wire.Packet) bool { // agent 1's endpoint
		if !armed && pkt.Type == wire.TAlgoStart {
			armed = true
			c.w.Drop(wire.TAlgoDone, agentAddr(1))
			c.w.Drop(wire.TAlgoStart, agentAddr(1))
		}
		return victim.Handle(pkt)
	})
	c.algo(client.RunSpec{Algo: "bfs", Source: el[0].Src, FromScratch: true})
	if !armed {
		t.Fatal("run 1 sent agent 1 no TAlgoStart")
	}
	c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
	c.check("wcc", el, 0)
}

// TestLeaveBeforeJoinReplyFails: an agent that has no ID yet, its join
// unanswered, cannot leave. Leave fails, sends no TLeave, and the
// coordinator's view stays where it was.
func TestLeaveBeforeJoinReplyFails(t *testing.T) {
	cfg := testConfig()
	c := boot(t, sim.NewWorld(), 2, cfg)
	ep := c.w.Endpoint(agentAddr(2))
	c.eps = append(c.eps, ep)
	a := agent.New(agent.Options{Config: cfg, MasterAddr: masterAddr, DirIndex: 2, Metrics: c.reg}, ep)
	ep.Serve(a.Handle)
	a.Boot()
	if err := a.Leave(); err == nil {
		t.Fatal("Leave before the join reply succeeded")
	}
	if n := c.w.Sent(agentAddr(2), wire.TLeave); n != 0 {
		t.Fatalf("Leave before the join reply sent %d TLeave frames", n)
	}
	c.agents = append(c.agents, a)
	c.run(func() bool { return c.cl.NumAgents() == len(c.agents) && c.st.Epoch() == c.cl.Epoch() })
}
