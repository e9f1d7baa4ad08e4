package cluster

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"elga/internal/agent"
	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/transport"
	"elga/internal/wire"
)

// ringGraph returns a directed cycle 0 -> 1 -> ... -> n-1 -> 0.
func ringGraph(n int) graph.EdgeList {
	el := make(graph.EdgeList, 0, n)
	for i := 0; i < n; i++ {
		el = append(el, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)})
	}
	return el
}

// randomGraph returns a random directed graph with a hub vertex to
// exercise skew.
func randomGraph(n, m int, seed int64) graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	var el graph.EdgeList
	for i := 0; i < m; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		el = append(el, graph.Edge{Src: u, Dst: v})
	}
	// Hub: vertex 0 connects to everything (skewed degree).
	for i := 1; i < n; i++ {
		el = append(el, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	return el.Dedupe()
}

func testConfig() config.Config {
	cfg := config.Default()
	cfg.SketchWidth = 512
	cfg.SketchDepth = 4
	cfg.Virtual = 16
	cfg.ReplicationThreshold = 0 // no splitting unless a test enables it
	return cfg
}

func newCluster(t *testing.T, agents int, cfg config.Config) *Cluster {
	t.Helper()
	c, err := New(Options{Config: cfg, Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// assertNothingUnroutable fails if any live agent dropped a message for
// want of a route: an answer that matches the reference must not have been
// reached past lost messages.
func assertNothingUnroutable(t *testing.T, c *Cluster) {
	t.Helper()
	for _, a := range c.Agents() {
		if n := a.StatsMap()["unroutable"]; n != 0 {
			t.Fatalf("agent %d dropped %d unroutable messages", a.ID(), n)
		}
	}
}

func checkAgainstReference(t *testing.T, c *Cluster, prog algorithm.Program, el graph.EdgeList, opts algorithm.RunOptions, tol float64) {
	t.Helper()
	ref := algorithm.Run(prog, el, opts)
	for v, want := range ref.State {
		got, found, err := c.QueryWord(v)
		if err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
		if !found {
			t.Fatalf("vertex %d not found", v)
		}
		if tol > 0 {
			g, w := algorithm.Word(got).F64(), want.F64()
			if math.Abs(g-w) > tol {
				t.Fatalf("vertex %d: got %v, want %v (tol %v)", v, g, w, tol)
			}
		} else if algorithm.Word(got) != want {
			t.Fatalf("vertex %d: got %d, want %d", v, got, want)
		}
	}
	assertNothingUnroutable(t, c)
}

func TestClusterBootAndShutdown(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	if c.NumAgents() != 3 {
		t.Fatalf("agents = %d", c.NumAgents())
	}
}

func TestLoadDistributesEdges(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	el := randomGraph(200, 1000, 1)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	counts := c.EdgeCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	// Each edge is stored twice (out-copy + in-copy).
	if total != 2*len(el) {
		t.Fatalf("stored %d copies, want %d", total, 2*len(el))
	}
	for id, n := range counts {
		if n == 0 {
			t.Errorf("agent %d holds no edges (bad balance)", id)
		}
	}
}

func TestWCCMatchesReference(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	el := randomGraph(120, 300, 2)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("WCC did not converge")
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestWCCSuperstepCountMatchesReference(t *testing.T) {
	// The paper verifies each system performs the same number of
	// supersteps (§4.3).
	c := newCluster(t, 3, testConfig())
	el := ringGraph(17)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := algorithm.Run(algorithm.WCC{}, el, algorithm.RunOptions{})
	if stats.Steps != ref.Steps {
		t.Fatalf("cluster took %d supersteps, reference %d", stats.Steps, ref.Steps)
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	el := randomGraph(100, 400, 3)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	// The paper checks floating point agreement to 1e-8 (§4.3).
	checkAgainstReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 10}, 1e-8)
}

func TestBFSMatchesReference(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	el := randomGraph(150, 500, 4)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "bfs", FromScratch: true, Source: 1}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.BFS{}, el,
		algorithm.RunOptions{Source: 1}, 0)
}

func TestSSSPMatchesReference(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	el := randomGraph(80, 240, 5)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "sssp", FromScratch: true, Source: 2}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.SSSP{}, el,
		algorithm.RunOptions{Source: 2}, 0)
}

func TestPageRankWithSplitVertices(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold = 32 // the hub (degree ~99+) splits
	cfg.MaxReplicas = 4
	c := newCluster(t, 4, cfg)
	el := randomGraph(100, 300, 6)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 8, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 8}, 1e-8)
}

func TestWCCWithSplitVertices(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold = 32
	cfg.MaxReplicas = 4
	c := newCluster(t, 4, cfg)
	el := randomGraph(100, 300, 7)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestIncrementalWCC(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	// Two chains.
	el := graph.EdgeList{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 10, Dst: 11}, {Src: 11, Dst: 12}}
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if w, _, _ := c.QueryWord(12); w != 10 {
		t.Fatalf("setup: component of 12 = %d", w)
	}
	// Bridge insert, then incremental maintenance.
	if err := c.ApplyBatch(graph.Batch{{Action: graph.Insert, Src: 2, Dst: 10}}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: false})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("incremental run did not converge")
	}
	for _, v := range []graph.VertexID{0, 1, 2, 10, 11, 12} {
		if w, _, _ := c.QueryWord(v); w != 0 {
			t.Fatalf("vertex %d label %d after merge, want 0", v, w)
		}
	}
}

func TestEdgeDeletion(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	el := graph.EdgeList{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyBatch(graph.Batch{{Action: graph.Delete, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	// From-scratch WCC on the remaining graph: 2 is isolated... fully
	// removed (no copies), so only 0 and 1 remain.
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if w, found, _ := c.QueryWord(0); !found || w != 0 {
		t.Fatalf("component of 0 = %d (found %v)", w, found)
	}
	if w, found, _ := c.QueryWord(1); !found || w != 0 {
		t.Fatalf("component of 1 = %d (found %v)", w, found)
	}
	counts := c.EdgeCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 2 {
		t.Fatalf("copies after delete = %d, want 2", total)
	}
}

func TestScaleUpPreservesGraphAndResults(t *testing.T) {
	c := newCluster(t, 2, testConfig())
	el := randomGraph(100, 400, 8)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, n := range c.EdgeCounts() {
		before += n
	}
	for i := 0; i < 3; i++ {
		if _, err := c.AddAgent(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	after := 0
	nonEmpty := 0
	for _, n := range c.EdgeCounts() {
		after += n
		if n > 0 {
			nonEmpty++
		}
	}
	if after != before {
		t.Fatalf("copies changed across scale-up: %d -> %d", before, after)
	}
	if nonEmpty < 4 {
		t.Errorf("only %d/5 agents hold edges after rebalance", nonEmpty)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestScaleDownPreservesGraphAndResults(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	el := randomGraph(100, 400, 9)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, n := range c.EdgeCounts() {
		before += n
	}
	if err := c.RemoveAgent(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, n := range c.EdgeCounts() {
		after += n
	}
	if after != before {
		t.Fatalf("copies changed across scale-down: %d -> %d", before, after)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 6, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 6}, 1e-8)
}

func TestQueryUnknownVertex(t *testing.T) {
	c := newCluster(t, 2, testConfig())
	if err := c.Load(graph.EdgeList{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	_, found, err := c.QueryWord(999)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("absent vertex reported found")
	}
}

func TestStatePersistsAcrossRuns(t *testing.T) {
	// Locally persistent model: query results survive after a run ends
	// and remain until the next run overwrites them.
	c := newCluster(t, 2, testConfig())
	el := ringGraph(10)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if w, _, _ := c.QueryWord(7); w != 0 {
		t.Fatalf("label after run = %d", w)
	}
	if _, err := c.Run(client.RunSpec{Algo: "bfs", FromScratch: true, Source: 3}); err != nil {
		t.Fatal(err)
	}
	if w, _, _ := c.QueryWord(7); w != 4 {
		t.Fatalf("distance 3->7 on ring = %d, want 4", w)
	}
}

func TestMultipleSequentialRuns(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	el := randomGraph(60, 200, 10)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 3, FromScratch: true}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 3}, 1e-8)
}

func TestTCPCluster(t *testing.T) {
	// The full stack over real sockets.
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig()
	c, err := New(Options{Config: cfg, Agents: 3, Network: transport.NewTCP()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	el := randomGraph(80, 300, 11)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestMultipleDirectories(t *testing.T) {
	cfg := testConfig()
	c, err := New(Options{Config: cfg, Agents: 4, Directories: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	el := randomGraph(80, 300, 12)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestEmptyGraphRun(t *testing.T) {
	c := newCluster(t, 2, testConfig())
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps > 1 {
		t.Errorf("empty graph took %d steps", stats.Steps)
	}
}

func TestMidRunScaleUpMatchesReference(t *testing.T) {
	// The Figure 17 property: agents joining during a run must not
	// change the result. PageRank state, mailboxes, and activity all
	// migrate at a superstep boundary.
	c := newCluster(t, 2, testConfig())
	el := randomGraph(150, 600, 21)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Join two agents while the run is in flight.
		for i := 0; i < 2; i++ {
			if _, err := c.AddAgent(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 12, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.NumAgents() != 4 {
		t.Fatalf("agents = %d after mid-run join", c.NumAgents())
	}
	// AddAgent returns at the join reply; the run can end before the second
	// joiner's migration round closes. The seal waits for it, so no query
	// below meets a vertex whose copies are in flight.
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 12}, 1e-8)
}

func TestMidRunScaleUpWCC(t *testing.T) {
	c := newCluster(t, 2, testConfig())
	el := randomGraph(200, 800, 22)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.AddAgent()
		done <- err
	}()
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil { // closes the joiner's migration round
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestMidRunMigrationShipsAllState(t *testing.T) {
	// Tripwire variant of the Figure 17 scenario: lazily initializing
	// vertex state after step 0 of a from-scratch run means a migration
	// failed to ship state or mail with its copies; the agent package
	// panics in that case when the trap is armed.
	agent.SetDebugTrapLazyInit(true)
	defer agent.SetDebugTrapLazyInit(false)
	for trial := 0; trial < 3; trial++ {
		c := newCluster(t, 2, testConfig())
		el := randomGraph(150, 600, 21+int64(trial))
		if err := c.Load(el); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			for i := 0; i < 2; i++ {
				if _, err := c.AddAgent(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 12, FromScratch: true}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
	}
}

func TestAsyncWCCMatchesReference(t *testing.T) {
	c := newCluster(t, 4, testConfig())
	el := randomGraph(120, 400, 30)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(client.RunSpec{Algo: "wcc", Async: true, FromScratch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("async WCC did not converge")
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestAsyncBFSMatchesReference(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	el := randomGraph(150, 500, 31)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "bfs", Async: true, FromScratch: true, Source: 1}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.BFS{}, el, algorithm.RunOptions{Source: 1}, 0)
}

func TestAsyncWCCWithSplitVertices(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold = 32
	cfg.MaxReplicas = 4
	c := newCluster(t, 4, cfg)
	el := randomGraph(100, 300, 32)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", Async: true, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestAsyncIncrementalWCC(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	el := graph.EdgeList{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", Async: true, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyBatch(graph.Batch{{Action: graph.Insert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", Async: true}); err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(0); v < 4; v++ {
		if w, _, _ := c.QueryWord(v); w != 0 {
			t.Fatalf("vertex %d label %d after async incremental merge", v, w)
		}
	}
}

func TestAsyncRejectsPageRank(t *testing.T) {
	c := newCluster(t, 2, testConfig())
	if err := c.Load(ringGraph(8)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(client.RunSpec{Algo: "pagerank", Async: true, FromScratch: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 0 || stats.Converged {
		t.Fatalf("async pagerank should be rejected with empty stats, got %+v", stats)
	}
}

func TestAsyncFollowedBySyncRun(t *testing.T) {
	// Mode interleaving: async run, then a sync run on the same cluster.
	c := newCluster(t, 3, testConfig())
	el := randomGraph(80, 250, 33)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", Async: true, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 5, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 5}, 1e-8)
}

func TestPPRMatchesReference(t *testing.T) {
	c := newCluster(t, 3, testConfig())
	el := randomGraph(90, 300, 40)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "ppr", MaxSteps: 10, FromScratch: true, Source: 3}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PPR{}, el,
		algorithm.RunOptions{MaxSteps: 10, Source: 3}, 1e-8)
}

func TestAgentsReportMetrics(t *testing.T) {
	var mu sync.Mutex
	byName := map[string]int{}
	c, err := New(Options{Config: testConfig(), Agents: 2, MetricHandler: func(m *wire.Metric) {
		mu.Lock()
		byName[m.Name]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Load(ringGraph(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 4, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		steps, changes := byName[autoscale.MetricStepTime], byName[autoscale.MetricChangeRate]
		mu.Unlock()
		if steps > 0 && changes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never arrived: %v", byName)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
