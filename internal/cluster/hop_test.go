package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/client"
	"elga/internal/events"
	"elga/internal/gen"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// typeCounts is a Network that counts, by type, every frame a dialled conn
// sends. It passes the conn's optional interfaces through (a conn without
// SendBatch gets its frames one Send at a time, as the node would send
// them), so a cluster over it writes as it does over the network it wraps.
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
	bc, ok := c.Conn.(transport.BatchConn)
	if !ok {
		for _, f := range frames {
			if err := c.Send(f); err != nil {
				return err
			}
		}
		return nil
	}
	c.count(frames...)
	return bc.SendBatch(frames)
}

// TrySend counts only what went out whole: a batch it declines comes back
// through Send or SendBatch.
func (c *countedConn) TrySend(frames [][]byte) bool {
	if tc, ok := c.Conn.(transport.TryConn); !ok || !tc.TrySend(frames) {
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
	before, data, reports := c.TransportStats(), sent(wire.TVertexMsgs), sent(wire.TReport)
	const runs = 5
	var steps uint64
	for i := 0; i < runs; i++ {
		steps += run()
	}
	after := c.TransportStats()
	data, reports = sent(wire.TVertexMsgs)-data, sent(wire.TReport)-reports
	frames, writes := after.FramesOut-before.FramesOut, after.ConnWrites-before.ConnWrites
	t.Logf("%d steps: %d frames, %d writes, %d data frames, %d reports", steps, frames, writes, data, reports)
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
	if reports > runs*perRun {
		t.Errorf("%d reports in %d steps: the phase time is a frame of its own again", reports, steps)
	}
	if after.Retransmits != 0 || after.EnqueueStalls != 0 {
		t.Errorf("retransmits %d, stalls %d", after.Retransmits, after.EnqueueStalls)
	}
	checkAgainstReference(t, c, algorithm.BFS{}, el, algorithm.RunOptions{Source: 0}, 0)
}

// TestBatchRoundShipsOneReport: a seal's batch round costs each agent one
// report frame, whose metric section carries the round's four samples,
// and nothing on the wire is a frame type this build does not define.
func TestBatchRoundShipsOneReport(t *testing.T) {
	const agents, seals = 4, 5
	cfg := testConfig()
	// No heartbeat tick lands inside the test: the seals' reports are the
	// only reports.
	cfg.HeartbeatInterval, cfg.LeaseTimeout = time.Hour, 2*time.Hour
	nw := &typeCounts{Network: transport.NewInproc()}
	var mu sync.Mutex
	changeRates := map[uint64]int{}
	c, err := New(Options{
		Config: cfg, Network: nw, Agents: agents,
		Trace: &trace.Config{}, Events: &events.Config{},
		MetricHandler: func(m *wire.Metric) {
			if m.Name == autoscale.MetricChangeRate {
				mu.Lock()
				changeRates[m.AgentID]++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	el := randomGraph(200, 1200, 5)
	if err := c.Load(el[:1000]); err != nil {
		t.Fatal(err)
	}
	before := nw.sent[wire.TReport].Load()
	for i := 0; i < seals; i++ {
		if err := c.ApplyBatch(el[1000+40*i : 1040+40*i].Changes()); err != nil {
			t.Fatal(err)
		}
	}
	if got := nw.sent[wire.TReport].Load() - before; got != seals*agents {
		t.Errorf("%d seals at %d agents sent %d reports, want %d", seals, agents, got, seals*agents)
	}
	for typ := range nw.sent {
		if n := nw.sent[typ].Load(); n > 0 && !wire.Type(typ).Valid() {
			t.Errorf("%d frames of undefined type %d", n, typ)
		}
	}
	// Each report is ordered before its sender's vote, so every sample is
	// in by the time the seals return: the load's and one per seal.
	mu.Lock()
	defer mu.Unlock()
	for _, a := range c.Agents() {
		if got := changeRates[a.ID()]; got != seals+1 {
			t.Errorf("agent %d: %d change-rate samples, want %d", a.ID(), got, seals+1)
		}
	}
}
