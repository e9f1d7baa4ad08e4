package cluster

import (
	"math"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/transport"
)

// chaosConfig shortens the failure-detector clocks so eviction happens
// inside test time, while keeping the lease long enough that injected
// drops cannot cause a false eviction.
func chaosConfig() config.Config {
	cfg := testConfig()
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.LeaseTimeout = 800 * time.Millisecond
	// Generous request budget: under -race plus injected drops, boot-time
	// joins wait out whole migration rounds paced by retransmission RTOs.
	cfg.RequestTimeout = 60 * time.Second
	return cfg
}

// chaosCall is the query policy for lossy links: REQ/REP has no
// transport retransmission, so reliability comes from many short
// attempts (each re-resolving the replica set against the fresh view).
var chaosCall = client.CallOpts{
	Timeout: 20 * time.Second,
	Retry:   transport.Retry{Attempts: 10, PerTry: 300 * time.Millisecond, Seed: 7},
}

// chaosRun is the run-control policy: deterministic FromScratch runs are
// idempotent, so re-submission after a dropped request or reply is safe.
// Each attempt must wait out a whole run, not a round-trip — but not much
// more: a dropped run *reply* is only re-sent on re-request, so every
// extra second of per-try budget is a second stalled. A chaos run takes
// seconds; 25s per try absorbs -race and loaded-runner slowdowns.
var chaosRun = client.CallOpts{
	Timeout: 250 * time.Second,
	Retry:   transport.Retry{Attempts: 10, PerTry: 25 * time.Second, Seed: 8},
}

// chaosCheck is checkAgainstReference under the chaos query policy.
func chaosCheck(t *testing.T, c *Cluster, prog algorithm.Program, el graph.EdgeList, opts algorithm.RunOptions, tol float64) {
	t.Helper()
	ref := algorithm.Run(prog, el, opts)
	for v, want := range ref.State {
		got, found, err := c.ctl.QueryWith(v, chaosCall)
		if err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
		if !found {
			t.Fatalf("vertex %d not found", v)
		}
		if tol > 0 {
			g, w := got.F64(), want.F64()
			if math.Abs(g-w) > tol {
				t.Fatalf("vertex %d: got %v, want %v (tol %v)", v, g, w, tol)
			}
		} else if got != want {
			t.Fatalf("vertex %d: got %d, want %d", v, got, want)
		}
	}
	assertNothingUnroutable(t, c)
}

// newChaosCluster boots a cluster over a seeded FaultNetwork wrapping the
// in-process transport. Chaos tests run the synchronous engine only: the
// asynchronous engine's quiescence counters assume unacked sends are
// never lost, so it cannot converge under injected drops.
func newChaosCluster(t *testing.T, agents int, cfg config.Config, fc transport.FaultConfig) (*Cluster, *transport.FaultNetwork) {
	t.Helper()
	fn := transport.NewFaultNetwork(transport.NewInproc(), fc)
	c, err := New(Options{Config: cfg, Agents: agents, Network: fn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c, fn
}

// waitStreamerView blocks until the cluster's streamer routes by a view of
// at least the given epoch. A test that saw a membership change through
// another participant calls it before Load: the streamer applies views only
// when it next sends, and one it has not received yet would send copies to
// an agent that is gone.
func waitStreamerView(t *testing.T, c *Cluster, epoch uint64) {
	t.Helper()
	s, err := c.streamer()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(15 * time.Second); s.Epoch() < epoch; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("streamer still at view epoch %d, want %d", s.Epoch(), epoch)
		}
	}
}

// TestChaosDropOnly checks that PageRank and WCC converge to the
// single-machine reference while every link drops 5% of its frames (and
// occasionally duplicates one): the acked-send retransmission and
// receiver dedup layers must make the barrier protocol exactly-once.
func TestChaosDropOnly(t *testing.T) {
	c, _ := newChaosCluster(t, 3, chaosConfig(), transport.FaultConfig{
		Seed: 42, Drop: 0.05, Duplicate: 0.02,
	})
	el := randomGraph(80, 300, 7)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}, chaosRun); err != nil {
		t.Fatal(err)
	}
	chaosCheck(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 10}, 1e-8)
	stats, err := c.ctl.RunWith(client.RunSpec{Algo: "wcc", FromScratch: true}, chaosRun)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("WCC did not converge under drops")
	}
	chaosCheck(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
	if ts := c.TransportStats(); ts.Retransmits == 0 {
		t.Error("expected retransmissions under 5% drop, saw none")
	}
}

// TestChaosDelayOnly checks convergence under up-to-10ms per-frame
// jitter, which reorders traffic across links (per-link FIFO holds) and
// stretches every barrier.
func TestChaosDelayOnly(t *testing.T) {
	c, _ := newChaosCluster(t, 3, chaosConfig(), transport.FaultConfig{
		Seed: 43, Delay: 10 * time.Millisecond,
	})
	el := randomGraph(60, 200, 8)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 8, FromScratch: true}, chaosRun); err != nil {
		t.Fatal(err)
	}
	chaosCheck(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 8}, 1e-8)
}

// TestChaosKillAgent fail-stops one agent mid-run. The coordinator must
// evict it via the lease timeout (reusing the leave/scale-down migration
// path), survivors must re-own its key ranges, and after the lost edges
// are re-streamed the cluster must again match the single-machine
// reference exactly.
func TestChaosKillAgent(t *testing.T) {
	cfg := chaosConfig()
	c, fn := newChaosCluster(t, 4, cfg, transport.FaultConfig{Seed: 44})
	el := randomGraph(80, 300, 9)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	epochBefore := c.Epoch()
	victim := c.Agents()[1]
	victimID := victim.ID()
	victimAddr := victim.Addr()

	// A dedicated observer client: the control client is busy with the
	// in-flight run and is not safe for concurrent use.
	observer, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	// Start a long synchronous run, then kill the victim mid-flight. The
	// run's result is undefined (its state died with the agent); what
	// matters is that the cluster unwedges and completes it.
	runDone := make(chan error, 1)
	go func() {
		_, err := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 40, FromScratch: true}, chaosRun)
		runDone <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the run get going
	fn.Kill(victimAddr)
	if err := c.KillAgent(1); err != nil {
		t.Fatal(err)
	}

	// The failure detector must evict the corpse: view epoch advances and
	// the membership shrinks to the survivors.
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

	// The dead agent's edges are lost (fail-stop, no replication).
	// Re-stream the full edge list — inserts are idempotent, so only the
	// lost copies land — and verify every copy is re-owned by survivors.
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

	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true, Timeout: 60 * time.Second}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 10}, 1e-8)
	stats, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true, Timeout: 60 * time.Second})
	if err != nil || !stats.Converged {
		t.Fatalf("WCC after recovery: stats=%v err=%v", stats, err)
	}
	checkAgainstReference(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)

	if evictions := c.Registry().Sum("elga_dir_evictions_total", metrics.Labels{"addr": c.dirs[0].Addr()}); evictions != 1 {
		t.Errorf("coordinator recorded %v evictions, want 1", evictions)
	}
}
