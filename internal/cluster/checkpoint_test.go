package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/transport"
)

// durableOptions is the shared Durability config chaos tests use: a
// tight superstep cadence so a mid-run kill has a recent snapshot.
func durableOptions(t *testing.T) *checkpoint.Config {
	t.Helper()
	return &checkpoint.Config{Enabled: true, Dir: t.TempDir(), EverySteps: 2}
}

// newDurableCluster is newChaosCluster plus a checkpoint sink.
func newDurableCluster(t *testing.T, agents int, cfg config.Config, fc transport.FaultConfig, dur *checkpoint.Config) (*Cluster, *transport.FaultNetwork) {
	t.Helper()
	fn := transport.NewFaultNetwork(transport.NewInproc(), fc)
	c, err := New(Options{Config: cfg, Agents: agents, Network: fn, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c, fn
}

// waitMembers polls a dedicated observer client until the view reaches
// the expected membership (draining view broadcasts with idle queries).
func waitMembers(t *testing.T, observer *client.Client, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, _, _ = observer.QueryWith(0, chaosCall)
		if observer.NumAgents() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: members %d, want %d", what, observer.NumAgents(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosKillAndRestart is the durability acceptance test: an agent is
// fail-stopped mid-run, evicted by the failure detector, and restarted
// from its checkpoint. The restored agent must rejoin warm — its durable
// copies reconcile against the post-eviction view through the ordinary
// migration round, with NO re-streaming — and the cluster must again
// match the single-machine reference exactly.
func TestChaosKillAndRestart(t *testing.T) {
	cfg := chaosConfig()
	c, fn := newDurableCluster(t, 4, cfg, transport.FaultConfig{Seed: 45}, durableOptions(t))
	el := randomGraph(80, 300, 10)
	// Load ends at a batch boundary, which always checkpoints: every
	// agent's full topology is durable before the fault.
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}

	victim := c.Agents()[1]
	victimID := victim.ID()
	victimAddr := victim.Addr()
	slot := c.AgentSlot(1)

	observer, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	// Kill mid-run: the interrupted run's result is undefined, but the
	// cluster must unwedge and complete it via eviction.
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
	waitMembers(t, observer, 3, "eviction")
	if err := <-runDone; err != nil {
		t.Fatalf("interrupted run did not complete: %v", err)
	}

	// Warm restart from the checkpoint — explicitly no re-stream.
	restarted, err := c.RestartAgent(slot)
	if err != nil {
		t.Fatal(err)
	}
	if restarted.ID() == victimID {
		t.Fatalf("restarted agent reused live ID %d", victimID)
	}
	waitMembers(t, observer, 4, "rejoin")

	// Runs queue behind the rejoin migration round, so success here means
	// reconciliation finished too.
	if _, err := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}, chaosRun); err != nil {
		t.Fatal(err)
	}
	chaosCheck(t, c, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 10}, 1e-8)
	stats, err := c.ctl.RunWith(client.RunSpec{Algo: "wcc", FromScratch: true}, chaosRun)
	if err != nil || !stats.Converged {
		t.Fatalf("WCC after warm restore: stats=%v err=%v", stats, err)
	}
	chaosCheck(t, c, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)

	// Every copy the victim took down must be back — recovered from its
	// checkpoint, not from a client.
	total := 0
	for _, n := range c.EdgeCounts() {
		total += n
	}
	if total != 2*len(el) {
		t.Fatalf("stored %d copies after warm restore, want %d", total, 2*len(el))
	}
}

// TestChaosRestartStaleManifest restarts an agent whose checkpoint
// predates topology the cluster ingested while it was dead. The stale
// restored copies must reconcile without losing the newer edges: restored
// state it no longer owns ships to the current owners (idempotent
// inserts), and the newer edges live wherever the post-eviction view put
// them.
func TestChaosRestartStaleManifest(t *testing.T) {
	cfg := chaosConfig()
	c, fn := newDurableCluster(t, 3, cfg, transport.FaultConfig{Seed: 46}, durableOptions(t))
	el := randomGraph(60, 200, 11)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}

	victimAddr := c.Agents()[1].Addr()
	slot := c.AgentSlot(1)
	observer, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	fn.Kill(victimAddr)
	if err := c.KillAgent(1); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, observer, 2, "eviction")

	// Grow the graph while the victim is down: its manifest is now stale.
	extra := randomGraph(60, 120, 12)
	if err := c.Load(extra); err != nil {
		t.Fatal(err)
	}
	combined := append(append(graph.EdgeList{}, el...), extra...).Dedupe()

	if _, err := c.RestartAgent(slot); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, observer, 3, "rejoin")

	stats, err := c.ctl.RunWith(client.RunSpec{Algo: "wcc", FromScratch: true}, chaosRun)
	if err != nil || !stats.Converged {
		t.Fatalf("WCC after stale restore: stats=%v err=%v", stats, err)
	}
	chaosCheck(t, c, algorithm.WCC{}, combined, algorithm.RunOptions{}, 0)
	total := 0
	for _, n := range c.EdgeCounts() {
		total += n
	}
	if total != 2*len(combined) {
		t.Fatalf("stored %d copies after stale restore, want %d", total, 2*len(combined))
	}
}

// TestStatsScrapeDuringCheckpoints hammers the /metrics endpoint from a
// background goroutine while checkpoints fire every superstep and an
// agent is killed and warm-restarted — the -race proof that the
// durability counters (Writer atomics, restore stats, ckpt gauges) are
// safe against the event loops and the writer goroutine mutating them.
func TestStatsScrapeDuringCheckpoints(t *testing.T) {
	dur := durableOptions(t)
	dur.EverySteps = 1 // checkpoint every superstep: maximum writer churn
	fn := transport.NewFaultNetwork(transport.NewInproc(), transport.FaultConfig{Seed: 47})
	c, err := New(Options{
		Config: chaosConfig(), Agents: 3, Network: fn,
		Durability: dur, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	el := randomGraph(60, 240, 14)
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	observer, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	// t.Fatal is test-goroutine-only, so the scraper records its first
	// failure and the test goroutine reports it after the run.
	done := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes int
	var scrapeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := tryScrape(c.MetricsAddr()); err != nil {
				scrapeErr = err
				return
			}
			scrapes++
			time.Sleep(5 * time.Millisecond)
		}
	}()

	_, runErr := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 12, FromScratch: true}, chaosRun)
	if runErr != nil {
		close(done)
		wg.Wait()
		t.Fatal(runErr)
	}
	// Membership churn under scrape: kill + warm restart. The registry
	// keeps serving the dead agent's closures (atomics outlive Close) and
	// gains the restarted slot's — both must stay scrape-safe.
	victimAddr := c.Agents()[1].Addr()
	slot := c.AgentSlot(1)
	fn.Kill(victimAddr)
	if err := c.KillAgent(1); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, observer, 2, "eviction")
	if _, err := c.RestartAgent(slot); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, observer, 3, "rejoin")
	if _, err := c.ctl.RunWith(client.RunSpec{Algo: "pagerank", MaxSteps: 8, FromScratch: true}, chaosRun); err != nil {
		t.Fatal(err)
	}
	// A registry read concurrently with the scraper: Sum calls the same
	// atomic-backed closures the scrape does, the dead agent's included.
	if c.Registry().Sum("elga_agent_applied_total", nil) == 0 {
		t.Error("registry sum of elga_agent_applied_total is 0")
	}

	close(done)
	wg.Wait()
	if scrapeErr != nil {
		t.Fatalf("concurrent scrape failed: %v", scrapeErr)
	}
	if scrapes == 0 {
		t.Fatal("no scrapes completed during the run")
	}
	text := scrape(t, c.MetricsAddr())
	for _, family := range []string{
		"elga_ckpt_total", "elga_ckpt_bytes_total", "elga_ckpt_age_seconds",
		"elga_ckpt_restores_total", "elga_ckpt_build_seconds",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("durability metric family %s missing from exposition", family)
		}
	}
}

// TestClusterRestartRecoversFromCheckpoints kills an entire deployment —
// coordinator included — and boots a fresh one over the same durable
// sink. The coordinator restores its published view, identity counters,
// and cut table; each agent slot restores its snapshot and rejoins warm.
// The graph AND the last run's vertex values must survive with no client
// re-streaming anything.
func TestClusterRestartRecoversFromCheckpoints(t *testing.T) {
	cfg := chaosConfig()
	dur := durableOptions(t)
	el := randomGraph(60, 200, 13)

	c1, err := New(Options{Config: cfg, Agents: 3, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Load(el); err != nil {
		c1.Shutdown()
		t.Fatal(err)
	}
	// Run completion forces a checkpoint on every agent, so the final
	// PageRank values are durable.
	if _, err := c1.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true, Timeout: 60 * time.Second}); err != nil {
		c1.Shutdown()
		t.Fatal(err)
	}
	c1.Shutdown()

	c2, err := New(Options{Config: cfg, Agents: 3, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Shutdown)
	observer, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()
	waitMembers(t, observer, 3, "cluster restart")
	// Seal queues behind any restore-reconciliation migration, so its
	// return means the recovered topology has settled.
	if err := c2.Seal(); err != nil {
		t.Fatal(err)
	}

	// The previous deployment's run results are readable warm — values
	// restored from checkpoints, never recomputed here.
	chaosCheck(t, c2, algorithm.PageRank{}, el,
		algorithm.RunOptions{MaxSteps: 10}, 1e-8)

	total := 0
	for _, n := range c2.EdgeCounts() {
		total += n
	}
	if total != 2*len(el) {
		t.Fatalf("recovered %d copies, want %d", total, 2*len(el))
	}
	// And the recovered cluster still computes: fresh run, exact match.
	stats, err := c2.Run(client.RunSpec{Algo: "wcc", FromScratch: true, Timeout: 60 * time.Second})
	if err != nil || !stats.Converged {
		t.Fatalf("WCC on recovered cluster: stats=%v err=%v", stats, err)
	}
	checkAgainstReference(t, c2, algorithm.WCC{}, el, algorithm.RunOptions{}, 0)
}
