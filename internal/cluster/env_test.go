package cluster

import (
	"os"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/graph"
)

// TestClusterReadsNoEnvironment: plane variables left in the shell are for
// the CLI alone. A default in-process cluster under them checkpoints
// nothing, traces nothing, journals nothing, and answers like the
// reference through a load, a delete batch and a WCC run.
func TestClusterReadsNoEnvironment(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("ELGA_CKPT", "1")
	t.Setenv("ELGA_CKPT_DIR", dir)
	t.Setenv("ELGA_TRACE", "1")
	t.Setenv("ELGA_EVENTS", "1")

	c := newCluster(t, 4, testConfig())
	if c.Collector() != nil {
		t.Error("ELGA_TRACE armed the cluster's span collector")
	}
	el := randomGraph(80, 300, 43)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	var del graph.Batch
	for _, e := range el[:40] {
		del = append(del, graph.Change{Action: graph.Delete, Src: e.Src, Dst: e.Dst})
	}
	if err := c.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	live := el[40:]
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, live, algorithm.RunOptions{}, 0)
	total := 0
	for _, n := range c.EdgeCounts() {
		total += n
	}
	if total != 2*len(live) {
		t.Errorf("copies after delete = %d, want %d", total, 2*len(live))
	}
	s, err := c.StatusEvents(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Timeline) != 0 {
		t.Errorf("ELGA_EVENTS armed the timeline: %d events", len(s.Timeline))
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("ELGA_CKPT_DIR holds %d entries (err %v), want none", len(ents), err)
	}
}
