package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/wire"
)

// These tests pin the coordinator's vertex count — the N PageRank divides
// by — to the vertices that have an edge, through what moves a split
// vertex's pin at its master: a replica's last copy leaving, the membership
// moving, and the vertex un-splitting.

func assertVertexCount(t *testing.T, c *Cluster, live graph.EdgeList, when string) {
	t.Helper()
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(live.NumVertices()); st.Vertices != want {
		t.Fatalf("%s: the coordinator counts %d vertices, the live edges have %d", when, st.Vertices, want)
	}
}

// vertexSet is the distinct vertices of el.
func vertexSet(el graph.EdgeList) map[graph.VertexID]bool {
	vs := make(map[graph.VertexID]bool, len(el))
	for _, e := range el {
		vs[e.Src], vs[e.Dst] = true, true
	}
	return vs
}

// routerFor is a router that installed view.
func routerFor(t *testing.T, cfg config.Config, view *wire.View) *route.Router {
	t.Helper()
	r := route.New(cfg)
	if _, err := r.Update(view); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDeletedSplitHubLeavesTheCount: a split hub whose master holds none of
// its copies is counted through the master's pin. Deleting every edge of the
// hub must take it out of the count at the seal that follows: each replica
// that loses its last copy deregisters, and the master drops the pin with
// the last registration.
func TestDeletedSplitHubLeavesTheCount(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold, cfg.MaxReplicas = 32, 4
	const hub, n = graph.VertexID(0), 400
	// The neighbours: vertices whose copy of the hub's edge lands on a
	// replica other than the master, under the four-agent ring the cluster
	// will have (agents 1..4) and the hub split four ways.
	ids := make([]wire.AgentInfo, 4)
	for i := range ids {
		ids[i] = wire.AgentInfo{ID: uint64(i + 1), Addr: "x"}
	}
	model := cfg.NewSketch()
	model.AddN(uint64(hub), 1000)
	sk, _ := model.MarshalBinary()
	plan := routerFor(t, cfg, &wire.View{Epoch: 1, Agents: ids, Sketch: sk})
	master, _ := plan.Master(hub)
	var el graph.EdgeList
	for w := graph.VertexID(1); w < n && len(el) < 120; w++ {
		if o, _ := plan.EdgeOwner(hub, w); o != master {
			el = append(el, graph.Edge{Src: hub, Dst: w})
		}
	}
	// Every other vertex keeps an edge when the hub's go.
	for w := graph.VertexID(1); w < n; w++ {
		el = append(el, graph.Edge{Src: w, Dst: w%(n-1) + 1})
	}
	c := newCluster(t, 4, cfg)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	final := routerFor(t, cfg, watchViews(t, c).next())
	if m, _ := final.Master(hub); !final.Split(hub) || m != master {
		t.Fatalf("test input: hub split=%v master %d, planned a four-way split mastered by %d", final.Split(hub), m, master)
	}
	for _, e := range el {
		if o, _ := final.EdgeOwner(e.Src, e.Dst); e.Src == hub && o == master {
			t.Fatalf("test input: the hub's master holds its copy of (%d,%d)", e.Src, e.Dst)
		}
	}
	assertVertexCount(t, c, el, "after the load")
	// A run folds the hub's partials at its master, which holds no copy.
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 5, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: 5}, 1e-8)

	var batch graph.Batch
	var live graph.EdgeList
	for _, e := range el {
		if e.Src == hub {
			batch = append(batch, graph.Change{Action: graph.Delete, Src: e.Src, Dst: e.Dst})
		} else {
			live = append(live, e)
		}
	}
	if err := c.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if live.NumVertices() != el.NumVertices()-1 {
		t.Fatal("test input: deleting the hub's edges took more than the hub out of the graph")
	}
	assertVertexCount(t, c, live, "after deleting the hub's edges")
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 5, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, live, algorithm.RunOptions{MaxSteps: 5}, 1e-8)
}

// churnBatch draws n/2 deletes from *live and n/2 inserts from *absent,
// moving each drawn edge to the other list.
func churnBatch(rng *rand.Rand, live, absent *graph.EdgeList, n int) graph.Batch {
	take := func(pool *graph.EdgeList) graph.Edge {
		p := *pool
		i := rng.Intn(len(p))
		e := p[i]
		p[i] = p[len(p)-1]
		*pool = p[:len(p)-1]
		return e
	}
	var b graph.Batch
	var deleted, inserted graph.EdgeList
	for i := 0; i < n/2; i++ {
		d, a := take(live), take(absent)
		deleted, inserted = append(deleted, d), append(inserted, a)
		b = append(b, graph.Change{Action: graph.Delete, Src: d.Src, Dst: d.Dst},
			graph.Change{Action: graph.Insert, Src: a.Src, Dst: a.Dst})
	}
	*live = append(*live, inserted...)
	*absent = append(*absent, deleted...)
	return b
}

// TestChurnKeepsTheVertexCountExact runs the benchmark's elasticity cycle —
// a delete/insert batch, a join, the oldest agent leaving, each sealed — on
// a graph where many vertices split (a small sketch overestimates low
// degrees past the threshold too), and checks after every cycle that the
// coordinator counts exactly the vertices that still have an edge.
func TestChurnKeepsTheVertexCountExact(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold, cfg.MaxReplicas = 64, 4
	cfg.SketchWidth = 96
	el := gen.RMAT(10, 4096, gen.Graph500Params(), 9).Dedupe()
	present := make(map[graph.Edge]bool, len(el))
	for _, e := range el {
		present[e] = true
	}
	var absent graph.EdgeList
	for _, e := range gen.RMAT(10, 4096, gen.Graph500Params(), 10).Dedupe() {
		if !present[e] {
			absent = append(absent, e)
		}
	}
	live := append(graph.EdgeList(nil), el...)
	c := newCluster(t, 4, cfg)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	final := routerFor(t, cfg, watchViews(t, c).next())
	split := 0
	for v := range vertexSet(el) {
		if final.Split(v) {
			split++
		}
	}
	t.Logf("%d of %d vertices split", split, len(vertexSet(el)))
	if split < 50 {
		t.Fatalf("test input: %d split vertices; the churn needs many to delete", split)
	}
	assertVertexCount(t, c, live, "after the load")
	rng := rand.New(rand.NewSource(9))
	for cycle := 1; cycle <= 8; cycle++ {
		if err := c.ApplyBatch(churnBatch(rng, &live, &absent, 512)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddAgent(); err != nil {
			t.Fatal(err)
		}
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveAgent(0); err != nil {
			t.Fatal(err)
		}
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		settledCounts(t, c, 2*len(live))
		assertVertexCount(t, c, live, fmt.Sprintf("cycle %d", cycle))
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 5, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, live, algorithm.RunOptions{MaxSteps: 5}, 1e-8)
}

// TestGrowthUnsplitsAHub: under the default, load-derived threshold a hub
// of a few hundred edges splits while the graph is small; growth batches
// that never touch it double the sketch total until the threshold passes
// its degree, and that batch's seal un-splits it. Afterwards every copy
// sits with the owner the final view names, no agent keeps a vertex it
// neither holds a copy of nor masters as a split vertex, the vertex count
// is exact, and PageRank and WCC equal the reference.
func TestGrowthUnsplitsAHub(t *testing.T) {
	cfg := config.Default()
	cfg.Virtual = 16
	const hub = graph.VertexID(0)
	rng := rand.New(rand.NewSource(21))
	edge := func(lo, hi int) graph.Edge {
		for {
			u, v := graph.VertexID(lo+rng.Intn(hi-lo)), graph.VertexID(lo+rng.Intn(hi-lo))
			if u != v {
				return graph.Edge{Src: u, Dst: v}
			}
		}
	}
	var base graph.EdgeList
	for w := graph.VertexID(1); w <= 350; w++ {
		base = append(base, graph.Edge{Src: hub, Dst: w})
	}
	for u := graph.VertexID(351); u <= 400; u++ {
		base = append(base, graph.Edge{Src: u, Dst: hub})
	}
	for i := 0; i < 2000; i++ {
		base = append(base, edge(1, 2000))
	}
	base = base.Dedupe()
	c := newCluster(t, 4, cfg)
	if err := c.Load(base); err != nil {
		t.Fatal(err)
	}
	if r := routerFor(t, cfg, watchViews(t, c).next()); !r.Split(hub) {
		t.Fatalf("test input: the hub does not split at load (threshold %d)", cfg.Threshold(2*uint64(len(base)), 4))
	}
	live := append(graph.EdgeList(nil), base...)
	have := make(map[graph.Edge]bool, len(live))
	for _, e := range live {
		have[e] = true
	}
	for round := 0; round < 3; round++ {
		var grow graph.EdgeList
		for len(grow) < 2500 {
			if e := edge(1, 4000); !have[e] {
				have[e] = true
				grow = append(grow, e)
			}
		}
		if err := c.ApplyBatch(grow.Changes()); err != nil {
			t.Fatal(err)
		}
		live = append(live, grow...)
	}
	final := routerFor(t, cfg, watchViews(t, c).next())
	if final.Split(hub) {
		t.Fatalf("the hub is still split at threshold %d", cfg.Threshold(2*uint64(len(live)), 4))
	}

	// Every copy with its owner, and every agent's vertex set exactly what it
	// holds copies of plus the split vertices it masters.
	owned := map[consistent.AgentID]int{}
	holds := map[consistent.AgentID]map[graph.VertexID]bool{}
	place := func(a consistent.AgentID, v graph.VertexID) {
		owned[a]++
		if holds[a] == nil {
			holds[a] = map[graph.VertexID]bool{}
		}
		holds[a][v] = true
	}
	for _, e := range live {
		out, _ := final.EdgeOwner(e.Src, e.Dst)
		in, _ := final.EdgeOwner(e.Dst, e.Src)
		place(out, e.Src)
		place(in, e.Dst)
	}
	for v := range vertexSet(live) {
		if m, _ := final.Master(v); final.Split(v) {
			if holds[m] == nil {
				holds[m] = map[graph.VertexID]bool{}
			}
			holds[m][v] = true
		}
	}
	got := settledCounts(t, c, 2*len(live))
	for _, a := range c.Agents() {
		id := consistent.AgentID(a.ID())
		if got[a.ID()] != owned[id] {
			t.Fatalf("agent %d holds %d copies, owns %d", id, got[a.ID()], owned[id])
		}
		deadline := time.Now().Add(5 * time.Second)
		for a.VertexCount() != len(holds[id]) {
			if time.Now().After(deadline) {
				t.Fatalf("agent %d keeps %d vertices; it holds copies of or masters as split %d", id, a.VertexCount(), len(holds[id]))
			}
			time.Sleep(time.Millisecond)
		}
	}
	assertVertexCount(t, c, live, "after the un-split")
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, live, algorithm.RunOptions{MaxSteps: 10}, 1e-8)
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, live, algorithm.RunOptions{}, 0)
}
