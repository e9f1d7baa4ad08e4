package cluster

import (
	"fmt"
	"testing"
	"time"

	"elga/internal/graph"
	"elga/internal/stats"
)

// These tests pin what elasticity leaves behind on the nodes that stay: a
// peer (queue, writer, conn) per departed participant, and acked views that
// an idle subscriber never acknowledged.

// churn runs the benchmark's elasticity cycle — a batch, an agent joins, an
// agent leaves, each sealed — except that the oldest agent stays and the
// next oldest leaves, so one agent sees every cycle. The batch follows the
// leave at once, so the streamer may route it by the view before the leave.
func churn(t *testing.T, c *Cluster, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		batch := make(graph.Batch, 16)
		for j := range batch {
			u := graph.VertexID(1000 + 16*i + j)
			batch[j] = graph.Change{Action: graph.Insert, Src: u, Dst: u + 1}
		}
		start := time.Now()
		if err := c.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		// A batch sent to the agent that just left is re-routed when the
		// streamer's next view drops it, not after the retransmission budget.
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("cycle %d: the batch took %v", i, d)
		}
		if _, err := c.AddAgent(); err != nil {
			t.Fatal(err)
		}
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveAgent(1); err != nil {
			t.Fatal(err)
		}
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoPeerOutlivesItsMember: after 20 join/leave cycles every live node —
// master, coordinator, agents, streamer, control client — keeps peers for at
// most as many addresses as there are live participants, and every streamed
// copy is held. Each cycle used to leave a peer behind on the coordinator,
// the master, the streamer and each survivor.
func TestNoPeerOutlivesItsMember(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	el := randomGraph(200, 1200, 7).Dedupe()
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	const cycles = 20
	churn(t, c, cycles)
	nodes := map[string]stats.Provider{"master": c.master, "control client": c.ctl, "streamer": c.stream}
	for i, d := range c.dirs {
		nodes[fmt.Sprintf("directory %d", i)] = d
	}
	for _, a := range c.agents {
		nodes[fmt.Sprintf("agent %d", a.ID())] = a
	}
	live := uint64(len(nodes))
	for name, n := range nodes {
		if peers := n.StatsMap()["peers"]; peers > live {
			t.Errorf("%s keeps %d peers with %d participants live", name, peers, live)
		}
	}
	settledCounts(t, c, 2*(len(el)+cycles*16))
}

// TestIdleClientAcksEveryView: a client that never calls anything still
// acknowledges each view as it arrives, so through 20 cycles the
// coordinator is left with nothing to retransmit to it — within a tick of
// the last view, not after its retransmission budget.
func TestIdleClientAcksEveryView(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	if err := c.Load(randomGraph(200, 1200, 8)); err != nil {
		t.Fatal(err)
	}
	idle, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	churn(t, c, 20)
	coord := c.Coordinator()
	deadline := time.Now().Add(time.Second)
	for coord.StatsMap()["acks_outstanding"] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the coordinator still waits for %d acks a second after the last view", coord.StatsMap()["acks_outstanding"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r := coord.StatsMap()["retransmits"]; r != 0 {
		t.Errorf("the coordinator retransmitted %d times", r)
	}
}
