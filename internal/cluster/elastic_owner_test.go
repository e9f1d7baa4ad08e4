package cluster

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/route"
)

// TestJoinLeaveJoinLeavesEveryCopyWithItsOwner churns the membership of a
// cluster holding a skewed graph with splitting on — join, leave, join —
// and then judges every copy of every edge on its own under the final
// view: each agent must hold exactly as many copies as it owns, the total
// must be two per edge, and a PageRank over what the agents hold must match
// the reference.
func TestJoinLeaveJoinLeavesEveryCopyWithItsOwner(t *testing.T) {
	cfg := config.Default()
	cfg.ReplicationThreshold, cfg.MaxReplicas = 64, 4
	c := newCluster(t, 4, cfg)
	el := gen.RMAT(12, 32768, gen.Graph500Params(), 5).Dedupe()
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { _, err := c.AddAgent(); return err },
		func() error { return c.RemoveAgent(0) },
		func() error { _, err := c.AddAgent(); return err },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
	}

	if checkCopiesWithOwners(t, c, cfg, el) == 0 {
		t.Fatal("no vertex is split; the test proves nothing about per-neighbour placement")
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: 10}, 1e-8)
}

// checkCopiesWithOwners judges every copy of every edge of el on its own
// under the cluster's current view: each agent must hold exactly as many
// copies as it owns, and the total must be two per edge. It returns how many
// edges have a split source.
func checkCopiesWithOwners(t *testing.T, c *Cluster, cfg config.Config, el graph.EdgeList) (split int) {
	t.Helper()
	view := watchViews(t, c).next()
	r := route.New(cfg)
	if _, err := r.Update(view); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{}
	for _, a := range c.Agents() {
		want[a.ID()] = 0
	}
	for _, e := range el {
		out, ok1 := r.EdgeOwner(e.Src, e.Dst)
		in, ok2 := r.EdgeOwner(e.Dst, e.Src)
		if !ok1 || !ok2 {
			t.Fatalf("edge (%d,%d) has no owner under the final view", e.Src, e.Dst)
		}
		want[uint64(out)]++
		want[uint64(in)]++
		if r.Split(e.Src) {
			split++
		}
	}
	got := settledCounts(t, c, 2*len(el))
	if len(got) != len(want) {
		t.Fatalf("agents %v hold copies, the view's members are %v", got, want)
	}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("agent %d holds %d copies, owns %d (all: held %v, owned %v)", id, got[id], n, got, want)
		}
	}
	return split
}

// TestJoinLandsRunsWithoutCompacting: a joiner is shipped its share of the
// graph as runs, each for a direction it holds nothing in, so it seals every
// one where it lands — its store does not compact during its join round —
// the round's TEdges frames cost at most 10 bytes a moved copy, and every
// copy ends with its owner.
func TestJoinLandsRunsWithoutCompacting(t *testing.T) {
	cfg := config.Default()
	c := newCluster(t, 4, cfg)
	el := gen.RMAT(12, 65536, gen.Graph500Params(), 5).Dedupe()
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	reg := c.Registry()
	applied := appliedTotal(c)
	shipped := reg.Sum("elga_migration_bytes_total", nil)
	joiner, err := c.AddAgent()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	checkCopiesWithOwners(t, c, cfg, el)
	moved := appliedTotal(c) - applied
	if moved < uint64(len(el))/4 {
		t.Fatalf("the join moved %d of %d copies", moved, 2*len(el))
	}
	if n := reg.Sum("elga_graph_compactions_total", metrics.Labels{"addr": joiner.Addr()}); n != 0 {
		t.Fatalf("the joiner compacted %v times landing %d copies", n, moved)
	}
	perCopy := (reg.Sum("elga_migration_bytes_total", nil) - shipped) / float64(moved)
	if perCopy > 10 {
		t.Fatalf("the join shipped %.2f bytes a moved copy, want at most 10", perCopy)
	}
	t.Logf("moved %d copies at %.2f bytes each", moved, perCopy)
}
