package cluster

import (
	"math"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/repartition"
	"elga/internal/transport"
)

// eagerRepartConfig is the planner tuned for tests: chase every gain,
// never cap the plan size, and let a vertex move again quickly.
func eagerRepartConfig(maxMoves int) repartition.Config {
	cfg := repartition.DefaultConfig()
	cfg.MaxMoves = maxMoves
	cfg.MinGain = 1
	return cfg
}

// measuredRun runs one from-scratch PageRank and returns the cut ratio
// and remote-byte volume it generated, isolated via ledger deltas.
func measuredRun(t *testing.T, c *Cluster, steps uint32) (cut float64, remoteBytes uint64) {
	t.Helper()
	l0, r0, b0 := c.CommStats()
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	l1, r1, b1 := c.CommStats()
	local, remote := l1-l0, r1-r0
	if local+remote == 0 {
		t.Fatal("measured run produced no scatter traffic")
	}
	return float64(remote) / float64(local+remote), b1 - b0
}

// drainPlanRounds alternates warm runs with planning rounds until the
// planner has executed at least one move in `rounds` separate windows.
func drainPlanRounds(t *testing.T, c *Cluster, steps uint32, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		before, _, _ := c.Coordinator().RepartitionStats()
		if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true}); err != nil {
			t.Fatal(err)
		}
		// The digest flush and idle plan race this return; wait for the
		// round's moves before generating the next traffic window.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if moves, _, _ := c.Coordinator().RepartitionStats(); moves > before {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestRepartitionImprovesCutRatio is the planner's end-to-end contract:
// on a community-structured graph, planning rounds must strictly reduce
// both the cut ratio and the cross-agent byte volume of the same
// workload, while PageRank still matches the single-machine reference
// over the migrated placement.
func TestRepartitionImprovesCutRatio(t *testing.T) {
	el := gen.Community(gen.CommunityParams{
		N: 1024, Communities: 8, Edges: 8192, PIntra: 0.9,
	}, 42)
	rcfg := eagerRepartConfig(1024)
	c, err := New(Options{
		Config:         testConfig(),
		Agents:         4,
		Repartition:    &rcfg,
		CommAccounting: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}

	const steps = 5
	// Run 1 executes on pure hash placement: the first digests only flush
	// at its end, so its deltas are the baseline.
	baseCut, baseBytes := measuredRun(t, c, steps)

	drainPlanRounds(t, c, steps, 4)
	moves, rounds, overrides := c.Coordinator().RepartitionStats()
	if moves == 0 || rounds == 0 {
		t.Fatalf("planner idle on community graph: moves=%d rounds=%d", moves, rounds)
	}
	if overrides == 0 {
		t.Fatal("moves executed but no overrides installed")
	}

	cut, bytes := measuredRun(t, c, steps)
	t.Logf("cut %.3f -> %.3f, remote bytes %d -> %d (%d moves, %d rounds, %d overrides)",
		baseCut, cut, baseBytes, bytes, moves, rounds, overrides)
	if cut >= baseCut {
		t.Fatalf("cut ratio did not improve: %.4f -> %.4f", baseCut, cut)
	}
	if bytes >= baseBytes {
		t.Fatalf("cross-agent bytes did not improve: %d -> %d", baseBytes, bytes)
	}

	// Correctness over the migrated placement: overrides must only change
	// where vertices live, never what the algorithm computes. The measured
	// run's end triggered one more plan round, so a vertex may be in
	// flight when first queried — retry transient not-founds until its
	// shipment lands.
	checkAgainstReferenceEventually(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: steps}, 1e-8)
}

// checkAgainstReferenceEventually is checkAgainstReference tolerant of an
// in-flight repartition migration: vertex state travels with its copies,
// so a moved vertex is transiently unqueryable between the view flip and
// its shipment's arrival. Retries not-found for a bounded window.
func checkAgainstReferenceEventually(t *testing.T, c *Cluster, prog algorithm.Program, el graph.EdgeList, opts algorithm.RunOptions, tol float64) {
	t.Helper()
	ref := algorithm.Run(prog, el, opts)
	for v, want := range ref.State {
		var (
			got   uint64
			found bool
			err   error
		)
		deadline := time.Now().Add(10 * time.Second)
		for {
			got, found, err = c.QueryWord(v)
			if err != nil {
				t.Fatalf("query %d: %v", v, err)
			}
			if found || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !found {
			t.Fatalf("vertex %d not found after migration settled", v)
		}
		if tol > 0 {
			g, w := algorithm.Word(got).F64(), want.F64()
			if math.Abs(g-w) > tol {
				t.Fatalf("vertex %d: got %v, want %v (tol %v)", v, g, w, tol)
			}
		} else if algorithm.Word(got) != want {
			t.Fatalf("vertex %d: got %d, want %d", v, got, want)
		}
	}
	assertNothingUnroutable(t, c)
}

// TestChaosRepartitionKillAgent kills an agent while its vertices are
// subject to live placement overrides. The eviction path must rebase the
// override table onto the survivors (no override may keep naming the
// corpse), and after re-streaming the lost edges the cluster must again
// match the single-machine reference exactly.
func TestChaosRepartitionKillAgent(t *testing.T) {
	cfg := chaosConfig()
	fn := transport.NewFaultNetwork(transport.NewInproc(), transport.FaultConfig{Seed: 45})
	rcfg := eagerRepartConfig(4096)
	c, err := New(Options{
		Config:         cfg,
		Agents:         4,
		Network:        fn,
		Repartition:    &rcfg,
		CommAccounting: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	el := gen.Community(gen.CommunityParams{
		N: 240, Communities: 4, Edges: 1200, PIntra: 0.9,
	}, 9)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}

	// Generate overrides before the failure so the eviction has a real
	// table to rebase.
	drainPlanRounds(t, c, 6, 2)
	if moves, _, overrides := c.Coordinator().RepartitionStats(); moves == 0 || overrides == 0 {
		t.Fatalf("no overrides to test rebase against: moves=%d overrides=%d", moves, overrides)
	}

	epochBefore := c.Epoch()
	victim := c.Agents()[1]
	victimID := victim.ID()
	victimAddr := victim.Addr()

	observer, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	// Kill the victim mid-run, exactly like TestChaosKillAgent — but here
	// the dying agent owns overridden vertices and may itself be an
	// override target.
	runDone := make(chan error, 1)
	go func() {
		_, err := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 40, FromScratch: true}, chaosRun)
		runDone <- err
	}()
	time.Sleep(30 * time.Millisecond)
	fn.Kill(victimAddr)
	if err := c.KillAgent(1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		_, _, _ = observer.QueryWith(0, chaosCall) // drains pending view broadcasts
		if observer.Epoch() > epochBefore && observer.NumAgents() == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent %d not evicted: epoch %d->%d, members %d",
				victimID, epochBefore, observer.Epoch(), observer.NumAgents())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("interrupted run did not complete: %v", err)
	}

	// The rebased override table must not name the corpse: the observer's
	// post-eviction view carries only survivor targets.
	for v, target := range observer.Overrides() {
		if uint64(target) == victimID {
			t.Fatalf("override %d -> %d still targets the evicted agent", v, target)
		}
	}

	// Re-stream the lost edges and verify ownership excludes the corpse.
	waitStreamerView(t, c, observer.Epoch())
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	counts := c.EdgeCounts()
	if _, ok := counts[victimID]; ok {
		t.Fatalf("killed agent %d still in edge counts %v", victimID, counts)
	}
	total := 0
	for id, n := range counts {
		if n == 0 {
			t.Errorf("survivor %d holds no edges after re-own", id)
		}
		total += n
	}
	if total != 2*len(el) {
		t.Fatalf("stored %d copies after recovery, want %d", total, 2*len(el))
	}

	// Correctness over (survivors + rebased overrides): exact reference
	// match for both a float and an integer algorithm. Each run's end
	// triggers another plan round, so checks must tolerate a vertex being
	// transiently in flight (this network injects no drops — only the
	// kill — so the plain query path is reliable).
	if _, err := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}, chaosRun); err != nil {
		t.Fatal(err)
	}
	checkAgainstReferenceEventually(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 10}, 1e-8)
	stats, err := c.ctl.RunWith(client.RunSpec{Algo: "wcc", FromScratch: true}, chaosRun)
	if err != nil || !stats.Converged {
		t.Fatalf("WCC after recovery: stats=%v err=%v", stats, err)
	}
	checkAgainstReferenceEventually(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)

	if evictions := c.dirs[0].StatsMap()["evictions"]; evictions != 1 {
		t.Errorf("coordinator recorded %d evictions, want 1", evictions)
	}
}
