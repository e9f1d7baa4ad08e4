package sim_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"elga/internal/agent"
	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/directory"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/sim"
	"elga/internal/transport"
	"elga/internal/wire"
)

const (
	masterAddr = "master"
	coordAddr  = "dir-0"
	clientAddr = "client"
	// limit bounds every wait in virtual time: a bootstrap resend is a
	// fraction of Config.RequestTimeout, and a run takes no virtual time.
	limit = time.Minute
)

func agentAddr(i int) string { return fmt.Sprintf("agent-%d", i) }

// cluster is a master, a coordinator and agents booted in one World, and a
// client endpoint driven by the test: it routes edge batches to their owners
// under the view it subscribes to, seals, runs and queries.
type cluster struct {
	t      *testing.T
	w      *sim.World
	cl     *sim.Endpoint
	router *route.Router
	acked  int
	reply  *wire.Packet
}

func testConfig() config.Config {
	cfg := config.Default()
	cfg.SketchWidth = 512
	cfg.SketchDepth = 4
	cfg.Virtual = 16
	cfg.ReplicationThreshold = 0
	return cfg
}

// boot builds the participants over w's endpoints and runs w until each has
// booted; faults armed on w beforehand hit the bootstrap. Checkpoints and
// every telemetry plane are off, and the compute pool runs inline.
func boot(t *testing.T, w *sim.World, agents int) *cluster {
	t.Helper()
	agent.SetComputeParallelism(1, 0)
	t.Cleanup(func() { agent.SetComputeParallelism(0, 0) })
	cfg := testConfig()
	ep := w.Endpoint(masterAddr)
	ep.Serve(directory.NewMaster(ep).Handle)
	ep = w.Endpoint(coordAddr)
	d := directory.New(directory.Options{Config: cfg, MasterAddr: masterAddr}, ep)
	ep.Serve(d.Handle)
	boots := []*transport.Boot{d.Boot()}
	for i := 0; i < agents; i++ {
		ep := w.Endpoint(agentAddr(i))
		a := agent.New(agent.Options{Config: cfg, MasterAddr: masterAddr, DirIndex: i}, ep)
		ep.Serve(a.Handle)
		boots = append(boots, a.Boot())
	}
	if err := w.RunUntil(func() bool {
		for _, b := range boots {
			select {
			case <-b.Done():
			default:
				return false
			}
		}
		return true
	}, limit); err != nil {
		t.Fatal(err)
	}
	for _, b := range boots {
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if !d.IsCoordinator() {
		t.Fatal("the only directory is not the coordinator")
	}
	c := &cluster{t: t, w: w, cl: w.Endpoint(clientAddr), router: route.New(cfg)}
	c.cl.Serve(c.handle)
	_, _ = c.cl.SendFrameAcked(coordAddr, wire.AppendSubscribeTypes(c.cl.NewFrame(wire.TSubscribe), wire.TDirUpdate))
	c.run(func() bool { return c.router.NumAgents() == agents })
	return c
}

func (c *cluster) handle(pkt *wire.Packet) bool {
	switch pkt.Type {
	case wire.TAck:
		c.acked++
	case wire.TDirUpdate:
		if v, err := wire.DecodeView(pkt.Payload); err == nil {
			if _, err := c.router.Update(v); err != nil {
				c.t.Error(err)
			}
		}
		c.cl.Ack(pkt)
	default:
		if c.reply != nil {
			c.t.Errorf("unexpected %s from %s", pkt.Type, pkt.From)
			return false
		}
		c.reply = pkt
		return true
	}
	return false
}

func (c *cluster) run(done func() bool) {
	c.t.Helper()
	if err := c.w.RunUntil(done, limit); err != nil {
		c.t.Fatal(err)
	}
}

// request sends frame to addr and runs the world until the reply, of type
// want, reaches the client.
func (c *cluster) request(addr string, frame []byte, want wire.Type) *wire.Packet {
	c.t.Helper()
	c.reply = nil
	if err := c.cl.SendFrame(addr, frame); err != nil {
		c.t.Fatal(err)
	}
	c.run(func() bool { return c.reply != nil })
	if c.reply.Type != want {
		c.t.Fatalf("got %s from %s, want %s", c.reply.Type, c.reply.From, want)
	}
	return c.reply
}

// apply routes b's copies to their owners in one edge batch per owner, runs
// the world until every batch is acked, and seals.
func (c *cluster) apply(b graph.Batch) {
	c.t.Helper()
	per := make([][]wire.EdgeChange, c.router.NumAgents())
	for _, ch := range b {
		out, ok1 := c.router.EdgeOwnerIndex(ch.Src, ch.Dst)
		in, ok2 := c.router.EdgeOwnerIndex(ch.Dst, ch.Src)
		if !ok1 || !ok2 {
			c.t.Fatal("no owner")
		}
		per[out] = append(per[out], wire.EdgeChange{Action: ch.Action, Src: ch.Src, Dst: ch.Dst, Dir: graph.Out})
		per[in] = append(per[in], wire.EdgeChange{Action: ch.Action, Src: ch.Src, Dst: ch.Dst, Dir: graph.In})
	}
	c.acked = 0
	sent := 0
	for i, changes := range per {
		addr, _ := c.router.AddrOf(c.router.Agents()[i])
		frame := wire.AppendEdgeBatch(c.cl.NewFrame(wire.TEdges), &wire.EdgeBatch{Epoch: c.router.Epoch(), Changes: changes})
		if _, err := c.cl.SendFrameAcked(addr, frame); err != nil {
			c.t.Fatal(err)
		}
		sent++
	}
	c.run(func() bool { return c.acked == sent })
	wire.ReleasePacket(c.request(coordAddr, c.cl.NewFrame(wire.TIngest), wire.TPong))
}

// algo runs spec to its end and returns its stats.
func (c *cluster) algo(spec wire.AlgoStart) *wire.RunStats {
	c.t.Helper()
	pkt := c.request(coordAddr, wire.AppendAlgoStart(c.cl.NewFrame(wire.TRunAlgo), &spec), wire.TRunReply)
	defer wire.ReleasePacket(pkt)
	st, err := wire.DecodeRunStats(pkt.Payload)
	if err != nil {
		c.t.Fatal(err)
	}
	if !st.Converged {
		c.t.Fatalf("%s did not converge in %d steps", spec.Algo, st.Steps)
	}
	return st
}

// check queries every vertex the reference computes over el from a replica
// and compares.
func (c *cluster) check(algo string, el graph.EdgeList, source graph.VertexID) {
	c.t.Helper()
	prog, err := algorithm.New(algo)
	if err != nil {
		c.t.Fatal(err)
	}
	ref := algorithm.Run(prog, el, algorithm.RunOptions{Source: source}).State
	salt := uint64(0)
	for v, want := range ref {
		salt++
		id, ok := c.router.AnyReplica(v, salt)
		addr, ok2 := c.router.AddrOf(id)
		if !ok || !ok2 {
			c.t.Fatalf("vertex %d has no replica", v)
		}
		pkt := c.request(addr, wire.AppendQuery(c.cl.NewFrame(wire.TQuery), &wire.Query{Vertex: v}), wire.TQueryReply)
		qr, err := wire.DecodeQueryReply(pkt.Payload)
		wire.ReleasePacket(pkt)
		if err != nil {
			c.t.Fatal(err)
		}
		if !qr.Found || algorithm.Word(qr.State) != want {
			c.t.Fatalf("%s: vertex %d: got %d (found %v), want %d", algo, v, qr.State, qr.Found, want)
		}
	}
}

// members checks that the view holds one member per agent address.
func (c *cluster) members(agents int) {
	c.t.Helper()
	seen := map[string]bool{}
	for _, id := range c.router.Agents() {
		addr, _ := c.router.AddrOf(id)
		seen[addr] = true
	}
	if len(seen) != agents || c.router.NumAgents() != agents {
		c.t.Fatalf("view holds %d members at %d addresses, want %d", c.router.NumAgents(), len(seen), agents)
	}
}

func inserts(el graph.EdgeList) graph.Batch {
	b := make(graph.Batch, len(el))
	for i, e := range el {
		b[i] = graph.Change{Action: graph.Insert, Src: e.Src, Dst: e.Dst}
	}
	return b
}

// TestBootAndRunOnOneGoroutine boots a master, a coordinator and three
// agents in one World, on the test goroutine, loads an R-MAT graph by edge
// batches and seals. Sync WCC and BFS must answer as algorithm.Run does on
// every vertex, and so must an incremental WCC after a batch of deletes,
// which the coordinator runs from scratch. A fault-free boot sends each
// bootstrap frame once, and nothing starts a goroutine.
func TestBootAndRunOnOneGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w := sim.NewWorld()
	c := boot(t, w, 3)
	for _, f := range []struct {
		from string
		typ  wire.Type
	}{
		{coordAddr, wire.TRegisterDirectory},
		{agentAddr(0), wire.TGetDirectory}, {agentAddr(1), wire.TGetDirectory}, {agentAddr(2), wire.TGetDirectory},
		{agentAddr(0), wire.TJoin}, {agentAddr(1), wire.TJoin}, {agentAddr(2), wire.TJoin},
	} {
		if n := w.Sent(f.from, f.typ); n != 1 {
			t.Errorf("%s sent %d %s frames in a fault-free boot, want 1", f.from, n, f.typ)
		}
	}
	c.members(3)

	el := gen.RMAT(8, 1024, gen.Graph500Params(), 3).Dedupe()
	c.apply(inserts(el))
	source := el[0].Src
	c.algo(wire.AlgoStart{Algo: "wcc", FromScratch: true})
	c.check("wcc", el, 0)
	c.algo(wire.AlgoStart{Algo: "bfs", Source: source, FromScratch: true})
	c.check("bfs", el, source)

	c.algo(wire.AlgoStart{Algo: "wcc", FromScratch: true})
	var dels graph.Batch
	held := graph.EdgeList{}
	for i, e := range el {
		if i%10 == 3 {
			dels = append(dels, graph.Change{Action: graph.Delete, Src: e.Src, Dst: e.Dst})
		} else {
			held = append(held, e)
		}
	}
	c.apply(dels)
	if st := c.algo(wire.AlgoStart{Algo: "wcc"}); !st.Recomputed {
		t.Error("the incremental WCC after deletes was not recomputed")
	}
	c.check("wcc", held, 0)

	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before the boot, %d after the last run", before, after)
	}
}

// TestLostBootstrapFrameCostsOneResend drops or duplicates one bootstrap
// frame per case. The participant it hits boots after exactly one resend
// (none for a duplicate), the view holds one member per agent address, and
// WCC still answers as algorithm.Run does.
func TestLostBootstrapFrameCostsOneResend(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fault   func(w *sim.World)
		from    string
		resent  wire.Type
		retries int
	}{
		{"drop-directory-list", func(w *sim.World) { w.Drop(wire.TDirectoryList, agentAddr(1)) }, agentAddr(1), wire.TGetDirectory, 1},
		{"drop-registration-reply", func(w *sim.World) { w.Drop(wire.TDirectoryList, coordAddr) }, coordAddr, wire.TRegisterDirectory, 1},
		{"drop-join-reply", func(w *sim.World) { w.Drop(wire.TJoinReply, agentAddr(2)) }, agentAddr(2), wire.TJoin, 1},
		{"duplicate-join", func(w *sim.World) { w.Duplicate(wire.TJoin, coordAddr) }, agentAddr(0), wire.TJoin, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorld()
			tc.fault(w)
			c := boot(t, w, 3)
			if n := w.Sent(tc.from, tc.resent); n != 1+tc.retries {
				t.Errorf("%s sent %d %s frames, want %d", tc.from, n, tc.resent, 1+tc.retries)
			}
			c.members(3)
			el := gen.RMAT(6, 256, gen.Graph500Params(), 4).Dedupe()
			c.apply(inserts(el))
			c.algo(wire.AlgoStart{Algo: "wcc", FromScratch: true})
			c.check("wcc", el, 0)
		})
	}
}
