package agent_test

// Agents running in parallel: each test runs an in-process cluster, every
// agent on its own event-loop goroutine, so `go test -race
// ./internal/agent/...` sees them side by side with the coordinator and the
// transport, across split-vertex combines and mid-run membership changes.
// Results must stay bit-identical (or within the paper's 1e-8 PageRank
// tolerance) to the sequential reference executor.

import (
	"math"
	"math/rand"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/graph"
)

func parallelTestConfig() config.Config {
	cfg := config.Default()
	cfg.SketchWidth = 512
	cfg.SketchDepth = 4
	cfg.Virtual = 16
	cfg.ReplicationThreshold = 0
	return cfg
}

// parallelRandomGraph mirrors the cluster package's generator: random
// edges plus a hub at vertex 0 for degree skew.
func parallelRandomGraph(n, m int, seed int64) graph.EdgeList {
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
	for i := 1; i < n; i++ {
		el = append(el, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	return el.Dedupe()
}

func newParallelCluster(t *testing.T, agents int, cfg config.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{Config: cfg, Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func checkReference(t *testing.T, c *cluster.Cluster, prog algorithm.Program, el graph.EdgeList, opts algorithm.RunOptions, tol float64) {
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
}

func TestParallelPageRankWithSplitsMatchesReference(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.ReplicationThreshold = 32 // the hub (degree ~n) splits
	cfg.MaxReplicas = 4
	c := newParallelCluster(t, 4, cfg)
	el := parallelRandomGraph(150, 600, 71)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 12, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 12}, 1e-8)
}

func TestParallelWCCMatchesReferenceExactly(t *testing.T) {
	c := newParallelCluster(t, 3, parallelTestConfig())
	el := parallelRandomGraph(200, 700, 72)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}

func TestParallelMidRunJoinMatchesReference(t *testing.T) {
	c := newParallelCluster(t, 2, parallelTestConfig())
	el := parallelRandomGraph(150, 600, 73)
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
	if c.NumAgents() != 4 {
		t.Fatalf("agents = %d after mid-run join", c.NumAgents())
	}
	// AddAgent returns at the join reply and the run can end before the
	// second joiner's migration round closes; the seal waits for it, so no
	// query below meets a vertex whose copies are in flight.
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	checkReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 12}, 1e-8)
}

func TestParallelLeaveThenRerunMatchesReference(t *testing.T) {
	c := newParallelCluster(t, 4, parallelTestConfig())
	el := parallelRandomGraph(120, 500, 74)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	// Scale down: the leaver's slice migrates, then the run repeats on
	// the smaller membership and must agree with the reference again.
	if err := c.RemoveAgent(3); err != nil {
		t.Fatal(err)
	}
	if c.NumAgents() != 3 {
		t.Fatalf("agents = %d after leave", c.NumAgents())
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 10}, 1e-8)
}
