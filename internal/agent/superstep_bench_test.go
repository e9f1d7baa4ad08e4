package agent

import (
	"math/rand"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/profile"
)

// benchmarkSuperstep measures one full PageRank compute phase (gather →
// update → scatter → local delivery) on a loopback agent over a random
// 4096-vertex graph, with the phase worker pool pinned to the given size.
// workers=1 is the sequential baseline (runSharded runs inline); larger
// counts exercise the shard/merge machinery. On a multi-core host the
// parallel variants show the speedup; on a single-core host they measure
// pool overhead instead — record numbers honestly either way.
func benchmarkSuperstep(b *testing.B, workers int) {
	benchmarkSuperstepComm(b, workers, false)
}

// benchmarkSuperstepComm is benchmarkSuperstep with the repartitioner's
// scatter-traffic ledger optionally armed, to pin its hot-path cost.
func benchmarkSuperstepComm(b *testing.B, workers int, repart bool) {
	cfg := allocTestConfig()
	const n = 4096
	a := newLoopbackAgent(b, cfg, n)
	if repart {
		a.opts.Repartition = true
		a.initComm()
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		src := graph.VertexID(i)
		// A ring edge keeps every vertex connected; three random edges
		// give scatter fan-out and skew.
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
// 3 allocs/op (the ack group, its completion closure, and mailbox map
// slack). Neighbour iteration must contribute zero: the CSR+delta store's
// value-type cursors live on the stack, so the ceiling is how CI catches
// a cursor or tail structure escaping to the heap. Skipped under -race,
// whose instrumentation allocates on its own.
func TestSuperstepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	res := testing.Benchmark(func(b *testing.B) { benchmarkSuperstep(b, 1) })
	if allocs := res.AllocsPerOp(); allocs > 3 {
		t.Fatalf("sequential superstep allocates %d allocs/op, ceiling is 3", allocs)
	}
}

// benchmarkSuperstepCkpt is benchmarkSuperstep with durable
// checkpointing armed but the superstep cadence never firing — each
// iteration runs the compute phase plus the maybeCheckpointStep trigger
// exactly as maybeReady's post-vote tail does.
func benchmarkSuperstepCkpt(b *testing.B, workers int) {
	cfg := allocTestConfig()
	const n = 4096
	a := newLoopbackAgent(b, cfg, n)
	sink, err := checkpoint.NewDirSink(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	a.ckpt.cfg = checkpoint.Config{Enabled: true, Key: "bench", EverySteps: 1 << 30}
	a.ckpt.writer = checkpoint.NewWriter(sink, "bench")
	b.Cleanup(a.closeCheckpoint)
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

	SetComputeParallelism(workers, 1)
	defer SetComputeParallelism(0, 0)

	advanceCompute(a, 0)
	a.maybeCheckpointStep()
	advanceCompute(a, 1)
	a.maybeCheckpointStep()
	advanceCompute(a, 2)
	a.maybeCheckpointStep()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advanceCompute(a, uint32(i+3))
		a.maybeCheckpointStep()
	}
}

// TestSuperstepAllocCeilingCheckpointArmed pins the superstep at the same
// 3 allocs/op ceiling with durable checkpointing enabled: a non-firing
// cadence step must cost one increment and one compare, nothing on the
// heap. This is how CI catches the trigger site drifting onto the hot
// path (checkpoint building itself runs off the superstep critical path,
// overlapping the barrier wait).
func TestSuperstepAllocCeilingCheckpointArmed(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	res := testing.Benchmark(func(b *testing.B) { benchmarkSuperstepCkpt(b, 1) })
	if allocs := res.AllocsPerOp(); allocs > 3 {
		t.Fatalf("superstep with checkpointing armed allocates %d allocs/op, ceiling is 3", allocs)
	}
}

// TestSuperstepAllocCeilingRepartition repeats the ceiling with the
// repartitioner's scatter accounting armed: the window map is cleared in
// place between digests, so steady-state accounting re-inserts warm keys
// into retained buckets and the 3 allocs/op ceiling must hold unchanged.
func TestSuperstepAllocCeilingRepartition(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	res := testing.Benchmark(func(b *testing.B) { benchmarkSuperstepComm(b, 1, true) })
	if allocs := res.AllocsPerOp(); allocs > 3 {
		t.Fatalf("superstep with comm accounting allocates %d allocs/op, ceiling is 3", allocs)
	}
}

// benchmarkSuperstepEvents is benchmarkSuperstep with the structured
// event journal armed on the loopback agent. Events only fire on
// control-plane transitions (joins, batch boundaries, checkpoints), so
// the steady-state compute phase must never touch the journal.
func benchmarkSuperstepEvents(b *testing.B, workers int) {
	cfg := allocTestConfig()
	const n = 4096
	a := newLoopbackAgent(b, cfg, n)
	a.journal = events.NewJournal("agent-bench", events.Config{Enabled: true})
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

	SetComputeParallelism(workers, 1)
	defer SetComputeParallelism(0, 0)

	advanceCompute(a, 0)
	advanceCompute(a, 1)
	advanceCompute(a, 2)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advanceCompute(a, uint32(i+3))
	}
}

// TestSuperstepAllocCeilingEventsArmed pins the superstep at the same
// 3 allocs/op ceiling with the event journal enabled — the acceptance
// check that event emission never rides the per-superstep hot path
// (emission sites are all control-plane transitions). Skipped under
// -race, whose instrumentation allocates on its own.
func TestSuperstepAllocCeilingEventsArmed(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	res := testing.Benchmark(func(b *testing.B) { benchmarkSuperstepEvents(b, 1) })
	if allocs := res.AllocsPerOp(); allocs > 3 {
		t.Fatalf("superstep with events armed allocates %d allocs/op, ceiling is 3", allocs)
	}
}

// benchmarkSuperstepProfile is benchmarkSuperstep with the profiling
// plane resolved and enabled but no capture in flight — each iteration
// runs the compute phase plus the maybeProfileStep trigger exactly as
// maybeReady's post-vote tail does. Idle, the plane must cost one
// predicted branch (the armed flag) and nothing on the heap.
func benchmarkSuperstepProfile(b *testing.B, workers int) {
	cfg := allocTestConfig()
	const n = 4096
	a := newLoopbackAgent(b, cfg, n)
	a.prof.cfg = profile.Resolve(&profile.Config{Enabled: true, AutoCapture: true})
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

	SetComputeParallelism(workers, 1)
	defer SetComputeParallelism(0, 0)

	advanceCompute(a, 0)
	a.maybeProfileStep()
	advanceCompute(a, 1)
	a.maybeProfileStep()
	advanceCompute(a, 2)
	a.maybeProfileStep()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advanceCompute(a, uint32(i+3))
		a.maybeProfileStep()
	}
}

// TestSuperstepAllocCeilingProfileArmed pins the superstep at the same
// 3 allocs/op ceiling with the profiling plane enabled but idle: no
// capture in flight means maybeProfileStep is a single flag check, so
// CI catches any drift that puts window accounting (or worse, capture
// serialization) onto the superstep critical path. Skipped under -race,
// whose instrumentation allocates on its own.
func TestSuperstepAllocCeilingProfileArmed(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	res := testing.Benchmark(func(b *testing.B) { benchmarkSuperstepProfile(b, 1) })
	if allocs := res.AllocsPerOp(); allocs > 3 {
		t.Fatalf("superstep with profiling armed allocates %d allocs/op, ceiling is 3", allocs)
	}
}
