package sim_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/sim"
)

// pagerankBits runs PageRank from scratch for 20 supersteps on three agents
// over an R-MAT graph of scale 10 and hashes the answer: FNV-64a over
// "v:state;" of every vertex with an edge, ascending.
func pagerankBits(t *testing.T, cfg config.Config, seed int64) string {
	t.Helper()
	el := gen.RMAT(10, 8192, gen.Graph500Params(), seed).Dedupe()
	c := boot(t, sim.NewWorld(), 3, cfg)
	c.apply(el.Changes())
	c.runSpec(client.RunSpec{Algo: "pagerank", MaxSteps: 20, FromScratch: true}, 20)
	var vs []graph.VertexID
	for _, e := range el {
		vs = append(vs, e.Src, e.Dst)
	}
	slices.Sort(vs)
	h := fnv.New64a()
	for _, v := range slices.Compact(vs) {
		state, found, err := c.cl.Query(v)
		if err != nil || !found {
			t.Fatalf("vertex %d: found %v, %v", v, found, err)
		}
		fmt.Fprintf(h, "%d:%d;", v, state)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pushBits are pagerankBits for seeds 1-4, as the push path
// computed them: every vertex scattered one message per edge, and each
// destination's messages were folded by target in scatter order.
var pushBits = map[string][]string{
	"test":  {"604d3c990da6cf18", "48cded671c42c1c9", "066344695caa03dd", "7d4f4b7563e352f3"},
	"split": {"dd7c1fc1c35f5a09", "a0535f486b5584a7", "68352d4a13e96924", "fc43a3606eac104c"},
}

// TestPageRankBitsMatchPush: folding a dense step along the run's
// transposed adjacency gives PageRank the push path's bits, with no vertex
// split (testConfig) and with the hubs split (splitConfig), where split
// vertices still push.
func TestPageRankBitsMatchPush(t *testing.T) {
	for name, cfg := range map[string]config.Config{"test": testConfig(), "split": splitConfig()} {
		for i, want := range pushBits[name] {
			t.Run(fmt.Sprintf("%s/seed-%d", name, i+1), func(t *testing.T) {
				if got := pagerankBits(t, cfg, int64(i+1)); got != want {
					t.Fatalf("PageRank hashes to %s, want %s", got, want)
				}
			})
		}
	}
}
