package sim_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
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
	"elga/internal/metrics"
	"elga/internal/sim"
	"elga/internal/streamer"
	"elga/internal/trace"
	"elga/internal/trace/collect"
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
	eps    []*sim.Endpoint // every participant's
	reg    *metrics.Registry
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
// agent; faults armed on w beforehand hit the bootstrap. The agents count
// into one metrics registry; checkpoints and every other telemetry plane are
// off, and the compute pool runs inline.
func boot(t *testing.T, w *sim.World, agents int, cfg config.Config) *cluster {
	t.Helper()
	return bootTraced(t, w, agents, cfg, nil)
}

// bootTraced is boot with tracing on when spans is not nil: the
// coordinator, the agents and the client trace every root, and the
// coordinator's span sink is spans.
func bootTraced(t *testing.T, w *sim.World, agents int, cfg config.Config, spans *collect.Collector) *cluster {
	t.Helper()
	var tr trace.Config
	var sink func(string, []trace.SpanRecord)
	if spans != nil {
		tr, sink = trace.Config{Enabled: true, Sample: 1}, spans.Add
	}
	c := &cluster{t: t, w: w, reg: metrics.NewRegistry()}
	endpoint := func(addr string) *sim.Endpoint {
		ep := w.Endpoint(addr)
		c.eps = append(c.eps, ep)
		return ep
	}
	ep := endpoint(masterAddr)
	ep.Serve(directory.NewMaster(ep).Handle)
	ep = endpoint(coordAddr)
	d := directory.New(directory.Options{Config: cfg, MasterAddr: masterAddr, Trace: tr, SpanSink: sink}, ep)
	ep.Serve(d.Handle)
	boots := []*transport.Boot{d.Boot()}
	for i := 0; i < agents; i++ {
		ep := endpoint(agentAddr(i))
		a := agent.New(agent.Options{Config: cfg, MasterAddr: masterAddr, DirIndex: i, Metrics: c.reg, Trace: tr}, ep)
		ep.Serve(a.Handle)
		boots = append(boots, a.Boot())
		c.agents = append(c.agents, a)
	}
	ep = endpoint(streamerAddr)
	c.st = streamer.New(streamer.Options{Config: cfg, MasterAddr: masterAddr}, ep)
	ep.Serve(c.st.Handle)
	c.clEp = endpoint(clientAddr)
	c.cl = client.New(client.Options{Config: cfg, MasterAddr: masterAddr, Trace: tr}, c.clEp)
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

// chaosApply streams b and seals under the chaos call policy.
func (c *cluster) chaosApply(b graph.Batch) {
	c.t.Helper()
	c.stream(b)
	if err := c.cl.SealWith(chaosCall); err != nil {
		c.t.Fatal(err)
	}
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

// faultFree runs the world until no endpoint has an acked send outstanding
// and checks that nothing was resent, deduplicated or given up: on a
// schedule that loses no frame and delays none by more than a fraction of
// the RTO, every ack beats its RTO, a lazy one by its tick.
func (c *cluster) faultFree() {
	c.t.Helper()
	c.run(func() bool {
		for _, ep := range c.eps {
			if ep.Stats().OutstandingAcks != 0 {
				return false
			}
		}
		return true
	})
	for _, ep := range c.eps {
		if s := ep.Stats(); s.Retransmits != 0 || s.DuplicatesDropped != 0 || s.AckGiveUps != 0 {
			c.t.Errorf("%s on a lossless schedule: %d retransmits, %d duplicates dropped, %d give-ups",
				ep.Addr(), s.Retransmits, s.DuplicatesDropped, s.AckGiveUps)
		}
	}
}

// frames counts what each endpoint has sent so far, by sender and type:
// every endpoint the cluster made, those of agents that left or joined
// included.
func (c *cluster) frames() map[string]int {
	n := map[string]int{}
	for _, ep := range c.eps {
		from := ep.Addr()
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
// bootstrap frame once, the whole run resends and deduplicates nothing, and
// nothing starts a goroutine.
func TestBootAndRunOnOneGoroutine(t *testing.T) {
	before := goroutines()
	w := sim.NewWorld()
	c := boot(t, w, 3, testConfig())
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
	c.faultFree()

	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before the boot, %d after the last run", before, after)
	}
}

// TestStreamSealRunQuery is the paper's dynamic loop in one World: R-MAT
// batches that delete a sample of the held edges and insert new ones are
// streamed, sealed, converged by incremental WCC and queried on every
// vertex, and each answer must equal algorithm.Run over the held set. It
// logs each op's frames by sender and type: the count form of the stream →
// query latency. Nothing is resent or deduplicated, and nothing starts a
// goroutine.
func TestStreamSealRunQuery(t *testing.T) {
	before := goroutines()
	w := sim.NewWorld()
	c := boot(t, w, 3, testConfig())
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
	c.faultFree()
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
			c := boot(t, w, 3, testConfig())
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
			c := boot(t, w, 3, testConfig())
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
		c := boot(t, w, 3, testConfig())
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
// that view, before its RTO would resend it, so the flush completes with
// every copy acknowledged and WCC answers as algorithm.Run does over every
// edge.
func TestStreamerReroutesAroundALeaver(t *testing.T) {
	w := sim.NewWorld()
	c := boot(t, w, 3, testConfig())
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
	if s := c.st.TransportStats(); s.OutstandingAcks != 0 || s.Retransmits != 0 {
		t.Fatalf("after the flush the streamer has %d sends outstanding and resent %d: the lost batch came back by its RTO, not CancelPeer",
			s.OutstandingAcks, s.Retransmits)
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

// TestDuplicatedBatchIsDroppedOnce: an edge batch delivered twice to an
// agent reaches its Handle once. The agent counts one duplicate dropped, and
// every agent holds the copies it holds in the fault-free run.
func TestDuplicatedBatchIsDroppedOnce(t *testing.T) {
	el := gen.RMAT(7, 512, gen.Graph500Params(), 8).Dedupe()
	load := func(dup bool) (copies []int, dropped uint64) {
		w := sim.NewWorld()
		c := boot(t, w, 3, testConfig())
		if dup {
			w.Duplicate(wire.TEdges, agentAddr(0))
		}
		c.apply(el.Changes())
		for _, a := range c.agents {
			copies = append(copies, a.EdgeCopies())
		}
		return copies, c.agents[0].TransportStats().DuplicatesDropped
	}
	want, _ := load(false)
	got, dropped := load(true)
	if !slices.Equal(got, want) {
		t.Errorf("edge copies per agent %v with a duplicated batch, %v without", got, want)
	}
	if dropped != 1 {
		t.Errorf("%s dropped %d duplicates, want 1", agentAddr(0), dropped)
	}
}

// chaosConfig shortens the failure-detector clocks as the wall-clock kill
// tests do, keeping the lease long enough that injected drops and delays
// cannot cause a false eviction.
func chaosConfig() config.Config {
	cfg := testConfig()
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.LeaseTimeout = 800 * time.Millisecond
	cfg.RequestTimeout = 60 * time.Second
	return cfg
}

// randomGraph is n vertices and up to m random edges, plus a hub: vertex 0
// links to every other vertex.
func randomGraph(n, m int, seed int64) graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	var el graph.EdgeList
	for i := 0; i < m; i++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u != v {
			el = append(el, graph.Edge{Src: u, Dst: v})
		}
	}
	for i := 1; i < n; i++ {
		el = append(el, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	return el.Dedupe()
}

// The chaos call policies: queries many short attempts, and runs, which
// are idempotent from scratch, attempts that each cover a whole run.
var (
	chaosCall = client.CallOpts{
		Timeout: 20 * time.Second,
		Retry:   transport.Retry{Attempts: 10, PerTry: 300 * time.Millisecond, Seed: 7},
	}
	chaosRun = client.CallOpts{
		Timeout: 250 * time.Second,
		Retry:   transport.Retry{Attempts: 10, PerTry: 25 * time.Second, Seed: 8},
	}
)

// chaosCheck queries every vertex the reference computes over el under the
// chaos query policy and compares, within tol for a float program, then
// checks that no agent dropped a message for want of an address.
func (c *cluster) chaosCheck(prog algorithm.Program, el graph.EdgeList, opts algorithm.RunOptions, tol float64) {
	c.t.Helper()
	ref := algorithm.Run(prog, el, opts).State
	vs := make([]graph.VertexID, 0, len(ref))
	for v := range ref {
		vs = append(vs, v)
	}
	slices.Sort(vs) // the queries' order, so a seed replays
	for _, v := range vs {
		got, found, err := c.cl.QueryWith(v, chaosCall)
		if err != nil {
			c.t.Fatalf("query %d: %v", v, err)
		}
		if !found {
			c.t.Fatalf("vertex %d not found", v)
		}
		want := ref[v]
		if tol > 0 && math.Abs(got.F64()-want.F64()) > tol || tol == 0 && got != want {
			c.t.Fatalf("vertex %d: got %v, want %v (tol %v)", v, got, want, tol)
		}
	}
	for _, a := range c.agents {
		if n := c.reg.Sum("elga_agent_unroutable_total", metrics.Labels{"addr": a.Addr()}); n != 0 {
			c.t.Fatalf("agent %d dropped %v unroutable messages", a.ID(), n)
		}
	}
}

// replay runs one seed of a chaos test, which returns the frames each
// endpoint sent, twice: the replay must send the same frames. A failing
// seed logs the command that reruns it.
func replay(t *testing.T, run func() map[string]int) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("replay: go test -run '^%s$' ./internal/sim/", t.Name())
		}
	}()
	frames := run()
	if again := run(); !maps.Equal(again, frames) {
		t.Fatalf("the replay sent other frames:\n%v\n%v", frames, again)
	}
}

// TestChaosDropOnly checks that PageRank and WCC converge to the
// single-machine reference while every frame is dropped with probability
// 5 % and duplicated with 2 %: the acked-send retransmission and receiver
// dedup layers must make the barrier protocol exactly-once. Each seed is a
// subtest, run twice: the replay must send the same frames.
func TestChaosDropOnly(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replay(t, func() map[string]int { return chaosDropOnly(t, seed) })
		})
	}
}

// chaosDropOnly runs one seed of TestChaosDropOnly and returns the frames
// each endpoint sent, by type.
func chaosDropOnly(t *testing.T, seed int64) map[string]int {
	w := sim.NewWorld()
	w.Chaos(seed, 0.05, 0.02, 0)
	c := boot(t, w, 3, chaosConfig())
	el := randomGraph(80, 300, 7)
	c.chaosApply(el.Changes())
	if _, err := c.cl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}, chaosRun); err != nil {
		t.Fatal(err)
	}
	c.chaosCheck(algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: 10}, 1e-8)
	st, err := c.cl.RunWith(client.RunSpec{Algo: "wcc", FromScratch: true}, chaosRun)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("WCC did not converge under drops")
	}
	c.chaosCheck(algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
	if c.retransmits() == 0 {
		t.Error("expected retransmissions under 5% drop, saw none")
	}
	return c.frames()
}

// retransmits sums the agents' resends.
func (c *cluster) retransmits() (n uint64) {
	for _, a := range c.agents {
		n += a.TransportStats().Retransmits
	}
	return n
}

// TestBootUnderChaos boots the three agents, streamer and client under 3 %
// drop and 1 % duplicate on every frame, with the chaos clocks, once per
// seed: each seed must boot within the configured request budget of virtual
// time.
func TestBootUnderChaos(t *testing.T) {
	cfg := chaosConfig()
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := sim.NewWorld()
			w.Chaos(seed, 0.03, 0.01, 0)
			start := w.Now()
			boot(t, w, 3, cfg)
			if took := w.Now().Sub(start); took > cfg.RequestTimeout {
				t.Fatalf("seed %d booted after %v of virtual time, past the %v budget", seed, took, cfg.RequestTimeout)
			}
		})
	}
}

// TestChaosDelayOnly checks that PageRank converges to the single-machine
// reference while every frame is delayed by up to 10 ms, or up to 20 ms,
// which reorders frames across links while each link stays FIFO; and that
// no acked send waits out its RTO, a lazy ack's included: the run resends,
// deduplicates and gives up nothing. Each seed is a subtest, run twice: the
// replay must send the same frames.
func TestChaosDelayOnly(t *testing.T) {
	for _, delay := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond} {
		t.Run(fmt.Sprintf("delay=%v", delay), func(t *testing.T) {
			for seed := int64(1); seed <= 16; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					replay(t, func() map[string]int { return chaosDelayOnly(t, seed, delay) })
				})
			}
		})
	}
}

// chaosDelayOnly runs one seed of TestChaosDelayOnly and returns the frames
// each endpoint sent, by type.
func chaosDelayOnly(t *testing.T, seed int64, delay time.Duration) map[string]int {
	w := sim.NewWorld()
	w.Chaos(seed, 0, 0, delay)
	c := boot(t, w, 3, chaosConfig())
	el := randomGraph(60, 200, 8)
	c.chaosApply(el.Changes())
	if _, err := c.cl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 8, FromScratch: true}, chaosRun); err != nil {
		t.Fatal(err)
	}
	c.chaosCheck(algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: 8}, 1e-8)
	c.faultFree()
	return c.frames()
}

// TestChaosTracedPageRank runs PageRank with the coordinator, the agents
// and the client tracing every root into the coordinator's span sink, while
// every frame is dropped with probability 3 % and delayed by up to 2 ms:
// span context on the frames and lossy span reports must not keep the run
// from completing and answering as the reference does. Each seed is a
// subtest, run twice: the replay must send the same frames.
func TestChaosTracedPageRank(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replay(t, func() map[string]int {
				w := sim.NewWorld()
				w.Chaos(seed, 0.03, 0, 2*time.Millisecond)
				spans := collect.New()
				c := bootTraced(t, w, 3, chaosConfig(), spans)
				el := randomGraph(60, 240, 13)
				c.chaosApply(el.Changes())
				if _, err := c.cl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 5, FromScratch: true}, chaosRun); err != nil {
					t.Fatal(err)
				}
				c.chaosCheck(algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: 5}, 1e-8)
				if spans.SpanCount() == 0 {
					t.Fatal("the coordinator's span sink collected no span")
				}
				return c.frames()
			})
		})
	}
}

// TestAckedExactlyOnceUnderDrops sends 200 acked pushes from one bare
// endpoint to another while every frame is dropped with probability 10 %
// and duplicated with 10 %: each push must reach the receiver's Handle
// exactly once, through the sender's resends and the receiver's dedup,
// with no send given up.
func TestAckedExactlyOnceUnderDrops(t *testing.T) {
	const sends = 200
	w := sim.NewWorld()
	w.Chaos(77, 0.1, 0.1, 0)
	a, b := w.Endpoint("a"), w.Endpoint("b")
	a.Serve(func(*wire.Packet) bool { return false })
	delivered := make([]int, sends)
	b.Serve(func(pkt *wire.Packet) bool {
		if pkt.Type == wire.TEdges {
			delivered[pkt.Payload[0]]++
			b.Ack(pkt)
		}
		return false
	})
	for i := 0; i < sends; i++ {
		if _, err := a.SendFrameAcked("b", append(a.NewFrame(wire.TEdges), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for a.Step() {
	}
	for i, n := range delivered {
		if n != 1 {
			t.Errorf("push %d reached the receiver %d times, want once", i, n)
		}
	}
	as, bs := a.Stats(), b.Stats()
	if as.OutstandingAcks != 0 || as.AckGiveUps != 0 {
		t.Errorf("%d sends outstanding and %d given up once the world ran out", as.OutstandingAcks, as.AckGiveUps)
	}
	if as.Retransmits == 0 {
		t.Error("no retransmissions under 10% drop")
	}
	if bs.DuplicatesDropped == 0 {
		t.Error("no duplicates dropped under 10% duplication")
	}
}

// TestDelayKeepsEachLinkFIFO sends frames from two bare endpoints to a third
// under a 10 ms delay: each sender's frames arrive in the order it sent them,
// the two links interleave otherwise than they were sent, and every frame
// arrives within the delay of the last send, as the clock reads.
func TestDelayKeepsEachLinkFIFO(t *testing.T) {
	const sends, delay = 100, 10 * time.Millisecond
	w := sim.NewWorld()
	w.Chaos(1, 0, 0, delay)
	a, b, r := w.Endpoint("a"), w.Endpoint("b"), w.Endpoint("r")
	var got []string
	r.Serve(func(pkt *wire.Packet) bool {
		got = append(got, fmt.Sprintf("%s%d", pkt.From, pkt.Payload[0]))
		return false
	})
	var sent []string
	start := w.Now()
	for i := 0; i < sends; i++ {
		for _, e := range []*sim.Endpoint{a, b} {
			if err := e.SendFrame("r", append(e.NewFrame(wire.TEdges), byte(i))); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, fmt.Sprintf("%s%d", e.Addr(), i))
		}
	}
	for r.Step() {
	}
	if len(got) != len(sent) {
		t.Fatalf("%d frames arrived, %d sent", len(got), len(sent))
	}
	next := map[string]int{}
	for _, g := range got {
		from := g[:1]
		if want := fmt.Sprintf("%s%d", from, next[from]); g != want {
			t.Fatalf("%s arrived where %s was due: the link from %s is not FIFO", g, want, from)
		}
		next[from]++
	}
	if slices.Equal(got, sent) {
		t.Error("the two links arrived in send order: the delay reordered nothing")
	}
	if took := w.Now().Sub(start); took <= 0 || took >= delay {
		t.Errorf("the last frame arrived %v after the sends, want within (0, %v)", took, delay)
	}
}
