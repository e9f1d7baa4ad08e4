package agent

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/profile"
)

// superstepAgent is a loopback agent holding a random 4096-vertex graph —
// a ring edge keeps every vertex connected, three random edges give
// scatter fan-out and skew — under an installed PageRank run.
func superstepAgent(tb testing.TB) *Agent {
	const n = 4096
	a := newLoopbackAgent(tb, allocTestConfig(), n)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		src := graph.VertexID(i)
		dsts := [4]graph.VertexID{
			graph.VertexID((i + 1) % n),
			graph.VertexID(rng.Intn(n)),
			graph.VertexID(rng.Intn(n)),
			graph.VertexID(rng.Intn(n)),
		}
		for _, dst := range dsts {
			a.store.AddEdge(src, dst, graph.Out)
			a.store.AddEdge(src, dst, graph.In)
		}
	}
	installRun(a, algorithm.PageRank{}, n)
	return a
}

// benchmarkSuperstep measures one full PageRank compute phase (gather →
// update → scatter → local delivery) on superstepAgent, with the phase
// worker pool pinned to the given size. workers=1 is the sequential
// baseline (runSharded runs inline); larger counts exercise the
// shard/merge machinery. On a multi-core host the parallel variants show
// the speedup; on a single-core host they measure pool overhead instead —
// record numbers honestly either way.
func benchmarkSuperstep(b *testing.B, workers int) {
	a := superstepAgent(b)
	SetComputeParallelism(workers, 1)
	defer SetComputeParallelism(0, 0)

	// Warm: init pass plus two steady steps so every pool (batchers,
	// shards, mailbox tables) reaches steady state.
	advanceCompute(a, 0)
	advanceCompute(a, 1)
	advanceCompute(a, 2)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advanceCompute(a, uint32(i+3))
	}
}

func BenchmarkSuperstepPageRankSeq(b *testing.B)  { benchmarkSuperstep(b, 1) }
func BenchmarkSuperstepPageRankPar2(b *testing.B) { benchmarkSuperstep(b, 2) }
func BenchmarkSuperstepPageRankPar4(b *testing.B) { benchmarkSuperstep(b, 4) }

// TestSuperstepAllocCeiling pins the steady-state sequential superstep at
// 3 allocs (the ack group, its completion closure, and mailbox map slack)
// under every combination of the planes that touch it: live metric
// handles, a checkpoint cadence that never fires, the scatter counters
// (comm accounting), the event journal and an idle profiling plane. Each step is the compute
// phase plus what maybeReady's post-vote tail runs: the phase histogram
// observation and the checkpoint and profile triggers. Neighbour iteration
// must contribute zero — the store's value-type cursors live on the stack
// — and an armed plane must cost a branch or a counter add, nothing on the
// heap. Skipped under -race, whose instrumentation allocates on its
// own.
func TestSuperstepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	planes := []string{"metrics", "checkpoint", "comm", "events", "profile"}
	SetComputeParallelism(1, 1)
	defer SetComputeParallelism(0, 0)
	for set := 0; set < 1<<len(planes); set++ {
		var armed []string
		for i, p := range planes {
			if set&(1<<i) != 0 {
				armed = append(armed, p)
			}
		}
		name := strings.Join(armed, "+")
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			a := superstepAgent(t)
			if set&1 != 0 {
				a.initMetrics(metrics.NewRegistry())
			}
			if set&2 != 0 {
				sink, err := checkpoint.NewDirSink(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				a.ckpt.cfg = checkpoint.Config{Enabled: true, Key: "bench", EverySteps: 1 << 30}
				a.ckpt.writer = checkpoint.NewWriter(sink, "bench")
				t.Cleanup(a.closeCheckpoint)
			}
			if set&4 != 0 {
				a.opts.CommAccounting = true
			}
			if set&8 != 0 {
				a.journal = events.NewJournal("agent-bench", events.Config{Enabled: true})
			}
			if set&16 != 0 {
				a.opts.Profile = profile.Config{Enabled: true, AutoCapture: true}
			}
			step := uint32(0)
			superstep := func() {
				start := time.Now()
				advanceCompute(a, step)
				a.m.phaseCompute.Observe(time.Since(start).Seconds())
				a.maybeCheckpointStep()
				a.maybeProfileStep()
				step++
			}
			superstep() // init pass plus two steady steps warm every pool
			superstep()
			superstep()
			if allocs := testing.AllocsPerRun(50, superstep); allocs > 3 {
				t.Fatalf("superstep allocates %v times, ceiling is 3", allocs)
			}
		})
	}
}
