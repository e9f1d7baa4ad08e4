package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/gen"
	"elga/internal/graph"
)

// TestIncrementalTraversalSeesInsertedEdges extends the path 1→2→3 (and the
// unreached 10→11) by 3→4 and 3→10. An incremental BFS or SSSP, sync or
// async, must carry the source's distances along the inserted copies on to
// 4, 10 and 11.
func TestIncrementalTraversalSeesInsertedEdges(t *testing.T) {
	base := graph.EdgeList{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 10, Dst: 11}}
	batch := graph.EdgeList{{Src: 3, Dst: 4}, {Src: 3, Dst: 10}}
	held := append(append(graph.EdgeList{}, base...), batch...)
	for _, algo := range []string{"bfs", "sssp"} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", algo, async), func(t *testing.T) {
				c := newCluster(t, 3, testConfig())
				if err := c.Load(base); err != nil {
					t.Fatal(err)
				}
				spec := client.RunSpec{Algo: algo, Async: async, Source: 1, FromScratch: true}
				if _, err := c.Run(spec); err != nil {
					t.Fatal(err)
				}
				if err := c.ApplyBatch(batch.Changes()); err != nil {
					t.Fatal(err)
				}
				spec.FromScratch = false
				stats, err := c.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !stats.Converged {
					t.Fatal("incremental run did not converge")
				}
				prog, _ := algorithm.New(algo)
				want := algorithm.Run(prog, held, algorithm.RunOptions{Source: 1}).State
				for _, v := range []graph.VertexID{4, 10, 11} {
					if got, _, _ := c.QueryWord(v); algorithm.Word(got) != want[v] {
						t.Fatalf("vertex %d: got %d, want %d (%d supersteps)", v, got, want[v], stats.Steps)
					}
				}
				checkAgainstReference(t, c, prog, held, algorithm.RunOptions{Source: 1}, 0)
			})
		}
	}
}

// TestIncrementalRejectsPageRank checks that incremental runs of programs
// that halt on steps or a residual rather than quiescence are refused:
// announcing the changed edges does not reach their from-scratch answer.
func TestIncrementalRejectsPageRank(t *testing.T) {
	c := newCluster(t, 2, testConfig())
	if err := c.Load(ringGraph(8)); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"pagerank", "ppr"} {
		stats, err := c.Run(client.RunSpec{Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Steps != 0 || stats.Converged {
			t.Fatalf("incremental %s should be rejected with empty stats, got %+v", algo, stats)
		}
	}
}

// TestIncrementalMatchesScratchProperty streams random insert batches into
// an R-MAT graph and, after each, checks incremental WCC (alternating sync
// and async), BFS and SSSP against the reference over the edges held. One
// agent joins and one leaves between batches, so the agents whose stores
// took migrated runs lose their fresh logs and announce every active
// vertex along all its edges. It runs with no split vertices and with a
// replication threshold low enough to split the hubs.
func TestIncrementalMatchesScratchProperty(t *testing.T) {
	const batches, batchSize = 20, 24
	el := gen.RMAT(9, 2048, gen.Graph500Params(), 5).Dedupe()
	split := len(el) * 3 / 4
	base, extra := el[:split], el[split:]
	rng := rand.New(rand.NewSource(5))
	// Half of each batch comes from the R-MAT remainder, half joins random
	// vertices, new ones included.
	var stream []graph.Batch
	for i := 0; i < batches; i++ {
		var b graph.Batch
		for len(b) < batchSize/2 && len(extra) > 0 {
			b = append(b, graph.Change{Action: graph.Insert, Src: extra[0].Src, Dst: extra[0].Dst})
			extra = extra[1:]
		}
		for len(b) < batchSize {
			u, v := graph.VertexID(rng.Intn(600)), graph.VertexID(rng.Intn(600))
			if u != v {
				b = append(b, graph.Change{Action: graph.Insert, Src: u, Dst: v})
			}
		}
		stream = append(stream, b)
	}
	source := base[0].Src
	for _, tc := range []struct {
		name      string
		threshold uint64
	}{{"unsplit", 0}, {"split-hubs", 32}} {
		for _, algo := range []string{"wcc", "bfs", "sssp"} {
			t.Run(tc.name+"/"+algo, func(t *testing.T) {
				cfg := testConfig()
				cfg.ReplicationThreshold = tc.threshold
				cfg.MaxReplicas = 4
				c := newCluster(t, 4, cfg)
				if err := c.Load(base); err != nil {
					t.Fatal(err)
				}
				if tc.threshold > 0 {
					// A split vertex is present on each of its replicas.
					present, distinct := 0, 0
					for _, a := range c.Agents() {
						present += a.VertexCount()
					}
					for _, d := range base.Degrees() {
						if d > 0 {
							distinct++
						}
					}
					if present <= distinct {
						t.Fatalf("no vertex split: %d present over %d vertices", present, distinct)
					}
				}
				prog, _ := algorithm.New(algo)
				opts := algorithm.RunOptions{Source: source}
				if _, err := c.Run(client.RunSpec{Algo: algo, Source: source, FromScratch: true}); err != nil {
					t.Fatal(err)
				}
				held := append(graph.EdgeList{}, base...)
				for i, b := range stream {
					switch i {
					case batches / 3:
						if _, err := c.AddAgent(); err != nil {
							t.Fatal(err)
						}
					case 2 * batches / 3:
						if err := c.RemoveAgent(0); err != nil {
							t.Fatal(err)
						}
					}
					if err := c.ApplyBatch(b); err != nil {
						t.Fatal(err)
					}
					for _, ch := range b {
						held = append(held, graph.Edge{Src: ch.Src, Dst: ch.Dst})
					}
					stats, err := c.Run(client.RunSpec{Algo: algo, Source: source, Async: i%2 == 1})
					if err != nil {
						t.Fatal(err)
					}
					if !stats.Converged {
						t.Fatalf("batch %d: incremental %s did not converge", i, algo)
					}
					checkAgainstReference(t, c, prog, held.Dedupe(), opts, 0)
				}
			})
		}
	}
}

// TestIncrementalWCCSendsTwoMessagesPerInsert pins what an incremental WCC
// run sends for a batch whose edges all fall inside existing components:
// each inserted edge's two copies announce once each, and no label moves,
// so the run sends exactly two messages an edge — not the touched
// vertices' degree sum.
func TestIncrementalWCCSendsTwoMessagesPerInsert(t *testing.T) {
	c, err := New(Options{Config: testConfig(), Agents: 4, CommAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	el := gen.RMAT(10, 8192, gen.Graph500Params(), 11).Dedupe()
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	labels := algorithm.Run(algorithm.WCC{}, el, algorithm.RunOptions{}).State
	have := make(map[graph.Edge]bool, len(el))
	byLabel := map[algorithm.Word][]graph.VertexID{}
	for _, e := range el {
		have[e] = true
	}
	for v, l := range labels {
		byLabel[l] = append(byLabel[l], v)
	}
	// Inserts inside the largest component, touching its hubs as R-MAT does.
	var comp []graph.VertexID
	for _, vs := range byLabel {
		if len(vs) > len(comp) {
			comp = vs
		}
	}
	rng := rand.New(rand.NewSource(11))
	var b graph.Batch
	for len(b) < 64 {
		e := graph.Edge{Src: comp[rng.Intn(len(comp))], Dst: el[rng.Intn(len(el))].Src}
		if e.Src == e.Dst || have[e] || labels[e.Dst] != labels[e.Src] {
			continue
		}
		have[e] = true
		b = append(b, graph.Change{Action: graph.Insert, Src: e.Src, Dst: e.Dst})
	}
	if err := c.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	l0, r0, _ := c.CommStats()
	stats, err := c.Run(client.RunSpec{Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	l1, r1, _ := c.CommStats()
	if sent := l1 - l0 + r1 - r0; sent != 2*uint64(len(b)) {
		t.Fatalf("incremental WCC over %d inserted edges sent %d messages in %d supersteps, want %d",
			len(b), sent, stats.Steps, 2*len(b))
	}
}
