package cluster

import (
	"sync/atomic"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/gen"
	"elga/internal/transport"
	"elga/internal/wire"
)

// typeCounts is a Network that counts, by type, every frame a dialled conn
// sends. It passes the conn's optional interfaces through, so a cluster
// over it writes exactly as it does over the network it wraps.
type typeCounts struct {
	transport.Network
	sent [256]atomic.Uint64
}

func (n *typeCounts) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, n: n}, nil
}

type countedConn struct {
	transport.Conn
	n *typeCounts
}

func (c *countedConn) count(frames ...[]byte) {
	for _, f := range frames {
		c.n.sent[wire.FrameType(f)].Add(1)
	}
}

func (c *countedConn) Send(frame []byte) error {
	c.count(frame)
	return c.Conn.Send(frame)
}

func (c *countedConn) SendBatch(frames [][]byte) error {
	c.count(frames...)
	return c.Conn.(transport.BatchConn).SendBatch(frames)
}

// TrySend counts only what went out whole: a batch it declines comes back
// through Send or SendBatch.
func (c *countedConn) TrySend(frames [][]byte) bool {
	if !c.Conn.(transport.TryConn).TrySend(frames) {
		return false
	}
	c.count(frames...)
	return true
}

// TestBarrierFrameBudgetOverTCP: a BFS on a 32×32 grid over loopback TCP —
// 62 levels of next to no compute, the shape of the benchmark's bfs-grid-tcp.
// Per superstep the agents send their votes, the acks of the Advances and,
// for every data frame, the frame and its ack — 8 + 2·(data frames) at
// P = 4 — and nothing else: no frame per vote for the phase time. The votes'
// and the Advances' acks are never a write of their own.
func TestBarrierFrameBudgetOverTCP(t *testing.T) {
	const agents = 4
	nw := &typeCounts{Network: transport.NewTCP()}
	c, err := New(Options{Config: testConfig(), Network: nw, Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	el := gen.Grid(32)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		st, err := c.Run(client.RunSpec{Algo: "bfs", Source: 0, FromScratch: true})
		if err != nil || !st.Converged {
			t.Fatalf("bfs: %v, stats %+v", err, st)
		}
		return uint64(st.Steps)
	}
	run() // dials every conn
	sent := func(typ wire.Type) uint64 { return nw.sent[typ].Load() }
	before, data, metrics := c.TransportStats(), sent(wire.TVertexMsgs), sent(wire.TMetric)
	const runs = 5
	var steps uint64
	for i := 0; i < runs; i++ {
		steps += run()
	}
	after := c.TransportStats()
	data, metrics = sent(wire.TVertexMsgs)-data, sent(wire.TMetric)-metrics
	frames, writes := after.FramesOut-before.FramesOut, after.ConnWrites-before.ConnWrites
	t.Logf("%d steps: %d frames, %d writes, %d data frames, %d metric frames", steps, frames, writes, data, metrics)
	// What a run costs outside its supersteps (start, halt, done, the
	// reports shipped at its end, heartbeats) is a constant per agent.
	const perRun = 16 * agents
	if budget := steps*(2*agents) + 2*data + runs*perRun; frames > budget {
		t.Errorf("%d steps, %d data frames: agents sent %d frames, budget %d (%.2f a step over)",
			steps, data, frames, budget, float64(frames-budget)/float64(steps))
	}
	if budget := steps*agents + 2*data + runs*perRun; writes > budget {
		t.Errorf("%d steps, %d data frames: agents made %d conn writes, budget %d: barrier acks travel alone",
			steps, data, writes, budget)
	}
	if metrics > runs*perRun {
		t.Errorf("%d metric frames in %d steps: the phase time is a frame of its own again", metrics, steps)
	}
	if after.Retransmits != 0 || after.EnqueueStalls != 0 {
		t.Errorf("retransmits %d, stalls %d", after.Retransmits, after.EnqueueStalls)
	}
	checkAgainstReference(t, c, algorithm.BFS{}, el, algorithm.RunOptions{Source: 0}, 0)
}
