package elga

// Three profiling entry points, each one operation of a workload of the repo
// benchmark (benchmark/) as a testing.B loop, so `-cpuprofile` answers where
// that operation's time goes. The paper's tables and figures are regenerated
// by `go run ./cmd/elga-bench <fig>` (internal/experiments).

import (
	"testing"

	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/transport"
	"elga/internal/wire"
)

// BenchmarkClusterPageRankRMAT14 is one operation of the repo benchmark's
// pagerank-static workload (benchmark/workloads.go) as a testing.B loop, so
// `-cpuprofile` answers "where does a superstep go" in one command: four
// in-process agents, R-MAT scale 14 with 131072 edges, a 30-step
// from-scratch PageRank per iteration. The default variant runs under
// config.Default(), whose load-derived threshold splits no vertex of this
// graph at P = 4; threshold256 is the same graph under the fixed threshold
// the default used to be, which splits its 106 hubs, so the difference
// between the two is what splitting costs at P = 4. Both report the frames
// the agents sent per superstep and how many vertices are split.
func BenchmarkClusterPageRankRMAT14(b *testing.B) {
	for _, v := range splitVariants() {
		b.Run(v.name, func(b *testing.B) { benchClusterPageRank(b, v.cfg) })
	}
}

// splitVariants are the two placements the profiling entry points compare:
// the default, load-derived threshold and the fixed 256 it replaced.
func splitVariants() []struct {
	name string
	cfg  config.Config
} {
	fixed := config.Default()
	fixed.ReplicationThreshold = 256
	return []struct {
		name string
		cfg  config.Config
	}{{"default", config.Default()}, {"threshold256", fixed}}
}

// rmat14 loads the graph of the R-MAT entry points into a four-agent
// cluster under cfg and returns it with how many of its vertices are split.
func rmat14(b *testing.B, cfg config.Config) (*cluster.Cluster, int) {
	b.Helper()
	c, err := cluster.New(cluster.Options{Config: cfg, Agents: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Shutdown)
	el := gen.RMAT(14, 131072, gen.Graph500Params(), 1).Dedupe()
	if err := c.Load(el); err != nil {
		b.Fatal(err)
	}
	// The directory's sketch is the exact count of what was applied, so a
	// router fed that count over the cluster's members routes as the agents do.
	sk := cfg.NewSketch()
	for _, e := range el {
		sk.Add(uint64(e.Src))
		sk.Add(uint64(e.Dst))
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	view := &wire.View{Epoch: 1, Sketch: data}
	for _, a := range c.Agents() {
		view.Agents = append(view.Agents, wire.AgentInfo{ID: a.ID(), Addr: a.Addr()})
	}
	r := route.New(cfg)
	if _, err := r.Update(view); err != nil {
		b.Fatal(err)
	}
	split := 0
	for v, d := range el.Degrees() {
		if d > 0 && r.Split(graph.VertexID(v)) {
			split++
		}
	}
	return c, split
}

func benchClusterPageRank(b *testing.B, cfg config.Config) {
	c, split := rmat14(b, cfg)
	const steps = 30
	run := func() {
		st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true})
		if err != nil || st.Steps != steps {
			b.Fatalf("pagerank: %v, stats %+v", err, st)
		}
	}
	// Two discarded runs fill the route tables, mailboxes and frame pools.
	run()
	run()
	frames := c.TransportStats().FramesOut
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.TransportStats().FramesOut-frames)/float64(b.N*steps), "frames/step")
	b.ReportMetric(float64(split), "split-vertices")
}

// BenchmarkClusterBFSGridTCP is one operation of the repo benchmark's
// bfs-grid-tcp workload as a testing.B loop, so `-cpuprofile` answers "where
// does a barrier go" in one command: four agents over loopback TCP under
// config.Default(), a 128×128 4-neighbour grid, a from-scratch BFS from a
// corner per iteration — 254 levels whose compute is negligible. It reports
// what the agents' nodes moved per superstep: frames sent, conn writes, and
// socket reads.
func BenchmarkClusterBFSGridTCP(b *testing.B) {
	c, err := cluster.New(cluster.Options{Config: config.Default(), Network: transport.NewTCP(), Agents: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Shutdown)
	if err := c.Load(gen.Grid(128)); err != nil {
		b.Fatal(err)
	}
	steps := 0
	run := func() {
		st, err := c.Run(client.RunSpec{Algo: "bfs", Source: 0, FromScratch: true})
		if err != nil || !st.Converged {
			b.Fatalf("bfs: %v, stats %+v", err, st)
		}
		steps += int(st.Steps)
	}
	// Two discarded runs dial every conn and fill the frame pools.
	run()
	run()
	steps = 0
	before := c.TransportStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	after := c.TransportStats()
	per := func(n uint64) float64 { return float64(n) / float64(steps) }
	b.ReportMetric(per(after.FramesOut-before.FramesOut), "frames/step")
	b.ReportMetric(per(after.ConnWrites-before.ConnWrites), "writes/step")
	b.ReportMetric(per(after.ConnReads-before.ConnReads), "reads/step")
}

// BenchmarkChurnCycleRMAT14 is the elastic half of the repo benchmark's
// churn-elastic operation as a testing.B loop, so `-cpuprofile` answers
// "where does a join or a leave go" in one command: the graph of
// BenchmarkClusterPageRankRMAT14 under the same two placements, loaded once;
// per iteration an agent joins and the longest-lived one leaves, each
// migration round closed by a seal. It reports the copies a join moved, the
// compactions the stores ran during it and the TEdges bytes it shipped per
// moved copy.
func BenchmarkChurnCycleRMAT14(b *testing.B) {
	for _, v := range splitVariants() {
		b.Run(v.name, func(b *testing.B) { benchChurnCycle(b, v.cfg) })
	}
}

func benchChurnCycle(b *testing.B, cfg config.Config) {
	c, split := rmat14(b, cfg)
	applied := func() (n uint64) {
		for _, a := range c.Agents() {
			_, copies, _ := a.Stats()
			n += copies
		}
		return n
	}
	// Departed agents' counters keep their last value, so the sums stay
	// monotone across leaves.
	sum := func(family string) float64 { return c.Registry().Sum(family, nil) }
	var moved uint64
	var compactions, shipped float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := applied()
		compacted, sent := sum("elga_graph_compactions_total"), sum("elga_migration_bytes_total")
		if _, err := c.AddAgent(); err != nil {
			b.Fatal(err)
		}
		if err := c.Seal(); err != nil {
			b.Fatal(err)
		}
		moved += applied() - before
		compactions += sum("elga_graph_compactions_total") - compacted
		shipped += sum("elga_migration_bytes_total") - sent
		if err := c.RemoveAgent(0); err != nil {
			b.Fatal(err)
		}
		if err := c.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(moved)/float64(b.N), "copies/join")
	b.ReportMetric(compactions/float64(b.N), "compactions/join")
	b.ReportMetric(shipped/float64(moved), "migration-bytes/copy")
	b.ReportMetric(float64(split), "split-vertices")
}
