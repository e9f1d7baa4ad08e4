package agent_test

import (
	"testing"

	"elga/internal/client"
	"elga/internal/graph"
)

// TestGatherOnceInDegreeOnCluster runs the message-counting program (see
// inDegreeProg) on a 3-agent cluster whose hub is split across replicas:
// messages are gathered by target at the sending agent, merged at the receiver, merged again across the hub's
// replica partials — and every vertex must still count exactly its
// in-degree. Re-gathering an aggregate anywhere along the way undercounts;
// merging an ungathered message overcounts (its value is 7).
func TestGatherOnceInDegreeOnCluster(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.ReplicationThreshold = 32
	cfg.MaxReplicas = 3
	c := newParallelCluster(t, 3, cfg)
	el := parallelRandomGraph(200, 1500, 19)
	// The hub also receives from everyone, so its in-edges — not only its
	// out-edges — are spread over the replicas.
	for i := 1; i < 200; i++ {
		el = append(el, graph.Edge{Src: graph.VertexID(i), Dst: 0})
	}
	el = el.Dedupe()
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "test-indegree", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	inDeg := make(map[graph.VertexID]uint64)
	for _, e := range el {
		inDeg[e.Src] += 0
		inDeg[e.Dst]++
	}
	if inDeg[0] < 150 {
		t.Fatalf("hub in-degree %d: the graph does not exercise a split target", inDeg[0])
	}
	for v, want := range inDeg {
		got, found, err := c.QueryWord(v)
		if err != nil || !found {
			t.Fatalf("query %d: found=%v err=%v", v, found, err)
		}
		if got != want {
			t.Errorf("vertex %d counted %d messages, in-degree is %d", v, got, want)
		}
	}
}
