package cluster

import (
	"bytes"
	"maps"
	"math/rand"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/sketch"
	"elga/internal/transport"
	"elga/internal/wire"
)

// These tests pin what opens a view epoch at a seal: a sketch delta that
// moves some cell across a replica bucket, and nothing less. They model the
// directory's sketch on the test side — every applied insert counts its
// source and its destination once — to know beforehand what a batch does.

// sketchOf is the sketch the directory holds once el is loaded.
func sketchOf(cfg config.Config, el graph.EdgeList) *sketch.Sketch {
	sk := cfg.NewSketch()
	for _, e := range el {
		sk.Add(uint64(e.Src))
		sk.Add(uint64(e.Dst))
	}
	return sk
}

// mergeCrosses merges el's increments into a copy of sk and reports the
// result and whether any cell changed replica bucket on the way, at four
// members.
func mergeCrosses(t *testing.T, cfg config.Config, sk *sketch.Sketch, el graph.EdgeList) (*sketch.Sketch, bool) {
	t.Helper()
	delta := sketch.NewDelta(cfg.SketchWidth, cfg.SketchDepth)
	for _, e := range el {
		delta.Add(uint64(e.Src))
		delta.Add(uint64(e.Dst))
	}
	merged := sk.Clone()
	crossed, err := merged.MergeDelta(delta.AppendBinary(nil), func(total uint64) uint64 { return cfg.Threshold(total, 4) }, cfg.MaxReplicas)
	if err != nil {
		t.Fatal(err)
	}
	return merged, crossed
}

func coordEpoch(c *Cluster) uint64 {
	return uint64(c.Registry().Sum("elga_dir_epoch", metrics.Labels{"addr": c.Coordinator().Addr()}))
}

func appliedTotal(c *Cluster) (total uint64) {
	for _, a := range c.Agents() {
		_, n, _ := a.Stats()
		total += n
	}
	return total
}

// settledCounts waits for the agents' copy gauges to add up to want (they
// trail the acknowledgement of the last change by an instant) and returns
// them.
func settledCounts(t *testing.T, c *Cluster, want int) map[uint64]int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		counts, total := c.EdgeCounts(), 0
		for _, n := range counts {
			total += n
		}
		if total == want {
			return counts
		}
		if time.Now().After(deadline) {
			t.Fatalf("agents hold %d copies, want %d", total, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// viewWatcher subscribes a bare node to the coordinator's view broadcasts.
type viewWatcher struct {
	t    *testing.T
	node *transport.Node
}

func watchViews(t *testing.T, c *Cluster) *viewWatcher {
	t.Helper()
	node, err := transport.NewNode(c.Network(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	if err := node.Send(c.Coordinator().Addr(), wire.TSubscribe, wire.SubscribeTypes(wire.TDirUpdate)); err != nil {
		t.Fatal(err)
	}
	return &viewWatcher{t: t, node: node}
}

// next returns the next view delivered: the first is the subscription's
// catch-up copy of the current one, every later one a broadcast.
func (w *viewWatcher) next() *wire.View {
	w.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case pkt := <-w.node.Inbox():
			if pkt.Type != wire.TDirUpdate {
				continue
			}
			w.node.Ack(pkt)
			v, err := wire.DecodeView(pkt.Payload)
			if err != nil {
				w.t.Fatal(err)
			}
			return v
		case <-deadline:
			w.t.Fatal("no view arrived")
		}
	}
}

func stream(t *testing.T, c *Cluster, b graph.Batch) {
	t.Helper()
	st, err := c.NewStreamer()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestNonCrossingSealOpensNoEpoch: a batch that moves no sketch cell across
// a replica bucket is sealed without a view broadcast — the coordinator's
// epoch stands, no copy moves, and since routers invalidate their caches
// only on a view install, none is invalidated. The batch adds vertices and
// removes one outright, so the coordinator's vertex count, which the
// agents now keep current from what the batch touched, must still be exact.
func TestNonCrossingSealOpensNoEpoch(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold = 48 // the hub of randomGraph splits at load
	c := newCluster(t, 4, cfg)
	el := randomGraph(200, 1000, 7)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}

	// Inserts between low-degree and brand-new vertices, keeping only those
	// the model says cross nothing; then every edge of one vertex deleted.
	model := sketchOf(cfg, el)
	have := make(map[graph.Edge]bool, len(el))
	for _, e := range el {
		have[e] = true
	}
	rng := rand.New(rand.NewSource(11))
	var batch graph.Batch
	live := append(graph.EdgeList(nil), el...)
	for len(batch) < 64 {
		e := graph.Edge{Src: graph.VertexID(1 + rng.Intn(260)), Dst: graph.VertexID(1 + rng.Intn(260))}
		if e.Src == e.Dst || have[e] {
			continue
		}
		merged, crossed := mergeCrosses(t, cfg, model, graph.EdgeList{e})
		if crossed {
			continue
		}
		model, have[e] = merged, true
		batch = append(batch, graph.Change{Action: graph.Insert, Src: e.Src, Dst: e.Dst})
		live = append(live, e)
	}
	const doomed = graph.VertexID(17)
	kept := live[:0]
	for _, e := range live {
		if e.Src == doomed || e.Dst == doomed {
			batch = append(batch, graph.Change{Action: graph.Delete, Src: e.Src, Dst: e.Dst})
			continue
		}
		kept = append(kept, e)
	}
	live = kept

	w := watchViews(t, c)
	epoch := coordEpoch(c)
	if v := w.next(); v.Epoch != epoch {
		t.Fatalf("catch-up view has epoch %d, coordinator is at %d", v.Epoch, epoch)
	}
	stream(t, c, batch)
	before := settledCounts(t, c, 2*len(live))
	applied := appliedTotal(c)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := coordEpoch(c); got != epoch {
		t.Fatalf("a seal that crossed no replica bucket moved the epoch %d -> %d", epoch, got)
	}
	if after := c.EdgeCounts(); !maps.Equal(before, after) {
		t.Fatalf("the seal round moved copies: %v -> %v", before, after)
	}
	if got := appliedTotal(c); got != applied {
		t.Fatalf("the seal round delivered %d migrated copies", got-applied)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(live.NumVertices()); st.Vertices != want {
		t.Fatalf("coordinator counts %d vertices, the live edges have %d", st.Vertices, want)
	}
	stats, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true})
	if err != nil || !stats.Converged {
		t.Fatalf("wcc after the batch: %v %v", stats, err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, live, algorithm.RunOptions{}, 0)

	// The next view anyone is sent is the join's: nothing was published by
	// the seal or by the run's own seal.
	if _, err := c.AddAgent(); err != nil {
		t.Fatal(err)
	}
	if v := w.next(); v.Epoch != epoch+1 || len(v.Agents) != 5 {
		t.Fatalf("first broadcast since the batch: epoch %d with %d agents, want the join at epoch %d",
			v.Epoch, len(v.Agents), epoch+1)
	}
}

// TestCrossingSealMovesOnlyReroutedVertex drives one vertex across the
// replication threshold. The seal opens exactly one epoch, the migration
// round it runs delivers only copies keyed on the vertices whose replica
// count changed, and every agent ends up holding exactly what it holds in
// a cluster that loaded the same edges in one batch — where the streamer
// routed each copy straight to the owner its router names.
func TestCrossingSealMovesOnlyReroutedVertex(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold = 32
	const hub = graph.VertexID(1000)
	rng := rand.New(rand.NewSource(5))
	var base graph.EdgeList
	for i := 0; i < 600; i++ {
		u, v := graph.VertexID(1+rng.Intn(299)), graph.VertexID(1+rng.Intn(299))
		if u != v {
			base = append(base, graph.Edge{Src: u, Dst: v})
		}
	}
	for w := graph.VertexID(1); w <= 20; w++ {
		base = append(base, graph.Edge{Src: hub, Dst: w})
	}
	base = base.Dedupe()
	var grow graph.EdgeList
	for w := graph.VertexID(21); w <= 70; w++ {
		grow = append(grow, graph.Edge{Src: hub, Dst: w})
	}
	final := append(append(graph.EdgeList(nil), base...), grow...)

	// What the model says the batch changes: the replica count of the hub,
	// and of whatever else shares all of its cells (normally nothing).
	agents := 4
	replicas := func(sk *sketch.Sketch, v graph.VertexID) int {
		return min(cfg.Replicas(sk.Estimate(uint64(v)), sk.Count(), agents), agents)
	}
	skBase := sketchOf(cfg, base)
	skFinal, crossed := mergeCrosses(t, cfg, skBase, grow)
	if !crossed || replicas(skBase, hub) != 1 || replicas(skFinal, hub) < 2 {
		t.Fatalf("test input: hub replicas %d -> %d, crossed=%v; want 1 -> 2+",
			replicas(skBase, hub), replicas(skFinal, hub), crossed)
	}
	bound := 0
	for _, e := range final {
		if replicas(skBase, e.Src) != replicas(skFinal, e.Src) {
			bound++ // the out copy, keyed on Src
		}
		if replicas(skBase, e.Dst) != replicas(skFinal, e.Dst) {
			bound++ // the in copy, keyed on Dst
		}
	}

	c := newCluster(t, agents, cfg)
	if err := c.Load(base); err != nil {
		t.Fatal(err)
	}
	epoch := coordEpoch(c)
	stream(t, c, grow.Changes())
	settledCounts(t, c, 2*len(final))
	applied := appliedTotal(c)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := coordEpoch(c); got != epoch+1 {
		t.Fatalf("crossing seal moved the epoch %d -> %d, want one step", epoch, got)
	}
	moved := int(appliedTotal(c) - applied)
	t.Logf("migration delivered %d copies, rerouted vertices key %d", moved, bound)
	if moved == 0 || moved > bound {
		t.Fatalf("the migration round delivered %d copies; the rerouted vertices key %d", moved, bound)
	}

	fresh := newCluster(t, agents, cfg)
	if err := fresh.Load(final); err != nil {
		t.Fatal(err)
	}
	want := settledCounts(t, fresh, 2*len(final))
	if got := settledCounts(t, c, 2*len(final)); !maps.Equal(got, want) {
		t.Fatalf("copies per agent %v; a cluster that loaded the same edges at once holds %v", got, want)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(final.NumVertices()); st.Vertices != want {
		t.Fatalf("coordinator counts %d vertices, want %d", st.Vertices, want)
	}
	// PageRank folds the split hub through its master every superstep, so
	// it is only right if the replicas re-registered under the new epoch.
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, final, algorithm.RunOptions{MaxSteps: 10}, 1e-8)
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, final, algorithm.RunOptions{}, 0)
}

// TestLoadOpensNoEpoch: under the default, load-derived threshold neither
// bulk load of the benchmark opens a view epoch at four agents — the
// R-MAT-14 graph, whose largest hub (3 008 edges) stays under the final
// threshold of 4 096, and the 128×128 grid, where nothing nears it. The
// R-MAT deltas do move cells past the thresholds in force part way through
// the merge (after one agent's delta the total is a quarter of the final
// one); the seal judges the merged sketch against what the routers hold and
// finds every bucket where it was.
func TestLoadOpensNoEpoch(t *testing.T) {
	for name, el := range map[string]graph.EdgeList{
		"rmat14": gen.RMAT(14, 131072, gen.Graph500Params(), 1),
		"grid":   gen.Grid(128),
	} {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 4, config.Default())
			epoch := coordEpoch(c)
			if err := c.Load(el); err != nil {
				t.Fatal(err)
			}
			if got := coordEpoch(c); got != epoch {
				t.Fatalf("the load moved the epoch %d -> %d", epoch, got)
			}
			assertVertexCount(t, c, el, "after the load")
		})
	}
}

// TestLeaverShipsItsUnsealedDelta: an agent that leaves gracefully between
// applying a batch and the seal takes none of the batch's sketch increments
// with it. The view the next join broadcasts carries exactly the sketch of
// every edge inserted, as if nobody had left.
func TestLeaverShipsItsUnsealedDelta(t *testing.T) {
	cfg := testConfig()
	c := newCluster(t, 4, cfg)
	el := randomGraph(300, 2000, 3)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	have := make(map[graph.Edge]bool, len(el))
	for _, e := range el {
		have[e] = true
	}
	all := append(graph.EdgeList(nil), el...)
	var batch graph.Batch
	rng := rand.New(rand.NewSource(17))
	for len(batch) < 400 {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(300)), Dst: graph.VertexID(rng.Intn(300))}
		if e.Src == e.Dst || have[e] {
			continue
		}
		have[e] = true
		all = append(all, e)
		batch = append(batch, graph.Change{Action: graph.Insert, Src: e.Src, Dst: e.Dst})
	}
	stream(t, c, batch)
	if err := c.RemoveAgent(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}

	w := watchViews(t, c)
	w.next() // the catch-up copy
	if _, err := c.AddAgent(); err != nil {
		t.Fatal(err)
	}
	v := w.next()
	if len(v.Agents) != 4 {
		t.Fatalf("first broadcast after the join lists %d agents, want 4", len(v.Agents))
	}
	want := sketchOf(cfg, all)
	var got sketch.Sketch
	if err := got.UnmarshalBinary(v.Sketch); err != nil {
		t.Fatal(err)
	}
	if wantBytes, _ := want.MarshalBinary(); !bytes.Equal(v.Sketch, wantBytes) {
		t.Fatalf("the join's view carries a sketch of total %d, the edges inserted make %d", got.Count(), want.Count())
	}
}
