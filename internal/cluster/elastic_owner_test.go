package cluster

import (
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/gen"
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

	view := watchViews(t, c).next()
	r := route.New(cfg)
	if _, err := r.Update(view); err != nil {
		t.Fatal(err)
	}
	want, split := map[uint64]int{}, 0
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
	if split == 0 {
		t.Fatal("no vertex is split; the test proves nothing about per-neighbour placement")
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
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: 10}, 1e-8)
}
