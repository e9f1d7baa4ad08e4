package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"elga/internal/agent"
	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/directory"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/sim"
	"elga/internal/streamer"
	"elga/internal/transport"
	"elga/internal/wire"
)

const (
	masterAddr   = "master"
	coordAddr    = "dir-0"
	streamerAddr = "streamer"
	clientAddr   = "client"
	// limit bounds every wait in virtual time: a bootstrap resend is a
	// fraction of Config.RequestTimeout, and a run takes no virtual time.
	limit = time.Minute
)

func agentAddr(i int) string { return fmt.Sprintf("agent-%d", i) }

// cluster is a master, a coordinator, agents, a streamer and a client
// booted in one World: every participant is the real one, served by its
// Handle on the test goroutine.
type cluster struct {
	t      *testing.T
	w      *sim.World
	agents []*agent.Agent
	st     *streamer.Streamer
	cl     *client.Client
	clEp   *sim.Endpoint
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
// booted and the streamer and the client route by the view holding every
// agent; faults armed on w beforehand hit the bootstrap. Checkpoints and
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
	c := &cluster{t: t, w: w}
	for i := 0; i < agents; i++ {
		ep := w.Endpoint(agentAddr(i))
		a := agent.New(agent.Options{Config: cfg, MasterAddr: masterAddr, DirIndex: i}, ep)
		ep.Serve(a.Handle)
		boots = append(boots, a.Boot())
		c.agents = append(c.agents, a)
	}
	ep = w.Endpoint(streamerAddr)
	c.st = streamer.New(streamer.Options{Config: cfg, MasterAddr: masterAddr}, ep)
	ep.Serve(c.st.Handle)
	c.clEp = w.Endpoint(clientAddr)
	c.cl = client.New(client.Options{Config: cfg, MasterAddr: masterAddr}, c.clEp)
	c.clEp.Serve(c.cl.Handle)
	boots = append(boots, c.st.Boot(), c.cl.Boot())
	c.run(func() bool {
		for _, b := range boots {
			if !closed(b.Done()) {
				return false
			}
		}
		return true
	})
	for _, b := range boots {
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if !d.IsCoordinator() {
		t.Fatal("the only directory is not the coordinator")
	}
	c.run(func() bool { return c.cl.NumAgents() == agents && c.st.Epoch() == c.cl.Epoch() })
	return c
}

// goroutines counts the goroutines once the count has stopped falling for
// 20 ms: the goroutine of the test that ran before may still be on its way
// out (testing.tRunner signals its end before it returns).
func goroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, i = m, 0
		}
	}
	return n
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func (c *cluster) run(done func() bool) {
	c.t.Helper()
	if err := c.w.RunUntil(done, limit); err != nil {
		c.t.Fatal(err)
	}
}

// stream sends b through the streamer and flushes: the blocking calls of
// the streamer and the client step the world until they end.
func (c *cluster) stream(b graph.Batch) {
	c.t.Helper()
	if err := c.st.SendBatch(b); err != nil {
		c.t.Fatal(err)
	}
	if err := c.st.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *cluster) seal() {
	c.t.Helper()
	if err := c.cl.Seal(); err != nil {
		c.t.Fatal(err)
	}
}

// apply streams b and seals.
func (c *cluster) apply(b graph.Batch) {
	c.t.Helper()
	c.stream(b)
	c.seal()
}

// algo runs spec to its end and returns its stats.
func (c *cluster) algo(spec client.RunSpec) *wire.RunStats {
	c.t.Helper()
	st, err := c.cl.Run(spec)
	if err != nil {
		c.t.Fatal(err)
	}
	if !st.Converged {
		c.t.Fatalf("%s did not converge in %d steps", spec.Algo, st.Steps)
	}
	return st
}

// check queries every vertex the reference computes over el and compares.
func (c *cluster) check(algo string, el graph.EdgeList, source graph.VertexID) {
	c.t.Helper()
	prog, err := algorithm.New(algo)
	if err != nil {
		c.t.Fatal(err)
	}
	ref := algorithm.Run(prog, el, algorithm.RunOptions{Source: source}).State
	vs := make([]graph.VertexID, 0, len(ref))
	for v := range ref {
		vs = append(vs, v)
	}
	slices.Sort(vs) // the queries' order, so a seed replays
	for _, v := range vs {
		state, found, err := c.cl.Query(v)
		if err != nil {
			c.t.Fatal(err)
		}
		if want := ref[v]; !found || state != want {
			c.t.Fatalf("%s: vertex %d: got %d (found %v), want %d", algo, v, state, found, want)
		}
	}
}

// members checks that the client's view holds one member per agent
// address: as many members as agents, and every agent's address answered a
// query, which the client sends only to the members of its view. Call it
// after check.
func (c *cluster) members() {
	c.t.Helper()
	if n := c.cl.NumAgents(); n != len(c.agents) {
		c.t.Fatalf("view holds %d members, want %d", n, len(c.agents))
	}
	for i := range c.agents {
		if c.w.Sent(agentAddr(i), wire.TQueryReply) == 0 {
			c.t.Fatalf("%s answered no query: the view has no member at its address", agentAddr(i))
		}
	}
}

// frames counts what each endpoint has sent so far, by sender and type.
func (c *cluster) frames() map[string]int {
	addrs := []string{masterAddr, coordAddr, streamerAddr, clientAddr}
	for i := range c.agents {
		addrs = append(addrs, agentAddr(i))
	}
	n := map[string]int{}
	for _, from := range addrs {
		for typ := 0; typ < 256; typ++ {
			if k := c.w.Sent(from, wire.Type(typ)); k > 0 {
				n[from+" "+wire.Type(typ).String()] = k
			}
		}
	}
	return n
}

// report logs the frames sent since before, by sender and type.
func (c *cluster) report(op string, before map[string]int) {
	var lines []string
	for key, n := range c.frames() {
		if d := n - before[key]; d > 0 {
			lines = append(lines, fmt.Sprintf("%s %d", key, d))
		}
	}
	slices.Sort(lines)
	c.t.Logf("%s: %s", op, strings.Join(lines, ", "))
}

// TestBootAndRunOnOneGoroutine boots a master, a coordinator, three agents,
// a streamer and a client in one World, on the test goroutine, streams an
// R-MAT graph and seals. Sync WCC and BFS must answer as algorithm.Run does
// on every vertex, and so must an incremental WCC after a batch of deletes,
// which the coordinator runs from scratch. A fault-free boot sends each
// bootstrap frame once, and nothing starts a goroutine.
func TestBootAndRunOnOneGoroutine(t *testing.T) {
	before := goroutines()
	w := sim.NewWorld()
	c := boot(t, w, 3)
	for _, f := range []struct {
		from string
		typ  wire.Type
	}{
		{coordAddr, wire.TRegisterDirectory},
		{agentAddr(0), wire.TGetDirectory}, {agentAddr(1), wire.TGetDirectory}, {agentAddr(2), wire.TGetDirectory},
		{agentAddr(0), wire.TJoin}, {agentAddr(1), wire.TJoin}, {agentAddr(2), wire.TJoin},
		{streamerAddr, wire.TGetDirectory}, {clientAddr, wire.TGetDirectory},
	} {
		if n := w.Sent(f.from, f.typ); n != 1 {
			t.Errorf("%s sent %d %s frames in a fault-free boot, want 1", f.from, n, f.typ)
		}
	}

	el := gen.RMAT(8, 1024, gen.Graph500Params(), 3).Dedupe()
	c.apply(el.Changes())
	source := el[0].Src
	c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
	c.check("wcc", el, 0)
	c.members()
	c.algo(client.RunSpec{Algo: "bfs", Source: source, FromScratch: true})
	c.check("bfs", el, source)

	c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
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
	if st := c.algo(client.RunSpec{Algo: "wcc"}); !st.Recomputed {
		t.Error("the incremental WCC after deletes was not recomputed")
	}
	c.check("wcc", held, 0)

	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before the boot, %d after the last run", before, after)
	}
}

// TestStreamSealRunQuery is the paper's dynamic loop in one World: R-MAT
// batches that delete a sample of the held edges and insert new ones are
// streamed, sealed, converged by incremental WCC and queried on every
// vertex, and each answer must equal algorithm.Run over the held set. It
// logs each op's frames by sender and type: the count form of the stream →
// query latency. Nothing starts a goroutine.
func TestStreamSealRunQuery(t *testing.T) {
	before := goroutines()
	w := sim.NewWorld()
	c := boot(t, w, 3)
	el := gen.RMAT(9, 2048, gen.Graph500Params(), 11).Dedupe()
	held, fresh := el[:len(el)/2], el[len(el)/2:]
	c.apply(held.Changes())
	c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
	c.check("wcc", held, 0)
	for round := 0; round < 3; round++ {
		dels, _, rest := gen.SampleBatch(held, 24, int64(round))
		ins := fresh[:64]
		fresh = fresh[64:]
		held = append(rest, ins...)

		f := c.frames()
		c.stream(append(dels, ins.Changes()...))
		c.report(fmt.Sprintf("round %d stream", round), f)
		f = c.frames()
		c.seal()
		c.report(fmt.Sprintf("round %d seal", round), f)
		f = c.frames()
		c.algo(client.RunSpec{Algo: "wcc"})
		c.report(fmt.Sprintf("round %d run", round), f)
		f = c.frames()
		c.check("wcc", held, 0)
		c.report(fmt.Sprintf("round %d query (every vertex)", round), f)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before the boot, %d after the last query", before, after)
	}
}

// TestLostBootstrapFrameCostsOneResend drops or duplicates one bootstrap
// frame per case. The participant it hits boots after exactly one resend
// (none for a duplicate), WCC still answers as algorithm.Run does, and the
// view holds one member per agent address.
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
			el := gen.RMAT(6, 256, gen.Graph500Params(), 4).Dedupe()
			c.apply(el.Changes())
			c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
			c.check("wcc", el, 0)
			c.members()
		})
	}
}

// TestLostClientReplyCostsOneResend drops one reply per case. A seal or a
// query completes after exactly one resend, PerTry and the seeded backoff
// after it went out; a streamer whose directory list is lost boots after
// one resend, a boot period later. A run is never resent: with its reply
// lost it fails at its deadline with one TRunAlgo sent.
func TestLostClientReplyCostsOneResend(t *testing.T) {
	const perTry = 2 * time.Second
	// backoff is the first delay of Retry{Seed: 1}
	// (TestRetryJitterScheduleIsSeeded).
	const backoff = 10418641 * time.Nanosecond
	co := client.CallOpts{Retry: transport.Retry{PerTry: perTry, Seed: 1}}
	el := gen.RMAT(6, 256, gen.Graph500Params(), 5).Dedupe()
	for _, tc := range []struct {
		name   string
		drop   wire.Type
		to     string
		sent   wire.Type
		from   string
		frames int
		after  time.Duration
		op     func(c *cluster) error
	}{
		{"seal", wire.TPong, clientAddr, wire.TIngest, clientAddr, 2, perTry + backoff, func(c *cluster) error {
			return c.cl.SealWith(co)
		}},
		{"query", wire.TQueryReply, clientAddr, wire.TQuery, clientAddr, 2, perTry + backoff, func(c *cluster) error {
			_, found, err := c.cl.QueryWith(el[0].Src, co)
			if err == nil && !found {
				err = fmt.Errorf("vertex %d not found", el[0].Src)
			}
			return err
		}},
		{"run", wire.TRunReply, clientAddr, wire.TRunAlgo, clientAddr, 1, 5 * time.Second, func(c *cluster) error {
			_, err := c.cl.Run(client.RunSpec{Algo: "wcc", FromScratch: true, Timeout: 5 * time.Second})
			if !errors.Is(err, transport.ErrTimeout) {
				return fmt.Errorf("run with its reply lost: %v, want a timeout", err)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorld()
			c := boot(t, w, 3)
			c.apply(el.Changes())
			c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
			sent, start := w.Sent(tc.from, tc.sent), c.clEp.Now()
			w.Drop(tc.drop, tc.to)
			if err := tc.op(c); err != nil {
				t.Fatal(err)
			}
			if n := w.Sent(tc.from, tc.sent) - sent; n != tc.frames {
				t.Errorf("%s sent %d %s frames, want %d", tc.from, n, tc.sent, tc.frames)
			}
			if d := c.clEp.Now().Sub(start); d != tc.after {
				t.Errorf("the %s ended %v after it began, want %v", tc.name, d, tc.after)
			}
			c.check("wcc", el, 0)
		})
	}
	t.Run("streamer-directory-list", func(t *testing.T) {
		w := sim.NewWorld()
		w.Drop(wire.TDirectoryList, streamerAddr)
		c := boot(t, w, 3)
		if n := w.Sent(streamerAddr, wire.TGetDirectory); n != 2 {
			t.Errorf("the streamer sent %d TGetDirectory frames, want 2", n)
		}
		c.apply(el.Changes())
		c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
		c.check("wcc", el, 0)
	})
}

// TestStreamerReroutesAroundALeaver: a streamer batch goes out to an agent
// under the view that still holds it, and is lost on the way, while the
// agent leaves. The view that drops the agent gives the unacknowledged
// batch back to the streamer (CancelPeer), which routes it again under
// that view, so the flush completes with every copy acknowledged and WCC
// answers as algorithm.Run does over every edge.
func TestStreamerReroutesAroundALeaver(t *testing.T) {
	w := sim.NewWorld()
	c := boot(t, w, 3)
	el := gen.RMAT(7, 512, gen.Graph500Params(), 6).Dedupe()
	half := len(el) / 2
	c.apply(el[:half].Changes())
	if err := c.st.SendBatch(el[half:].Changes()); err != nil {
		t.Fatal(err)
	}
	sent := w.Sent(streamerAddr, wire.TEdges)
	w.Drop(wire.TEdges, agentAddr(1))
	if err := c.agents[1].Leave(); err != nil {
		t.Fatal(err)
	}
	if err := c.st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := c.st.TransportStats().OutstandingAcks; n != 0 {
		t.Fatalf("%d streamer sends outstanding after the flush", n)
	}
	// Three batches under the old view, then the lost one's copies again.
	if n := w.Sent(streamerAddr, wire.TEdges) - sent; n <= 3 {
		t.Fatalf("the streamer sent %d edge batches: the lost one was not rerouted", n)
	}
	c.agents = slices.Delete(c.agents, 1, 2)
	c.run(func() bool { return c.cl.NumAgents() == 2 })
	c.seal()
	c.algo(client.RunSpec{Algo: "wcc", FromScratch: true})
	c.check("wcc", el, 0)
}
