package experiments

import (
	"fmt"
	"os"
	"time"

	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/transport"
)

// RecoveryPerf is the durability experiment's record: the same
// kill-one-agent fault recovered two ways — warm restore from the slot's
// checkpoint versus a cold full re-stream — plus the checkpoint-on
// superstep overhead against the durability-off baseline.
// WarmRestoreSeconds < ColdRebuildSeconds is the experiment's point;
// OverheadPct staying small is its cost side.
type RecoveryPerf struct {
	Graph      string
	Agents     int
	EdgeCopies int
	// WarmRestoreSeconds is RestartAgent-to-reconciled: the restarted
	// slot restores its snapshot, rejoins, and the migration round
	// settles every copy back in place. No client involvement.
	WarmRestoreSeconds float64
	// ColdRebuildSeconds is the durability-off alternative: boot a fresh
	// agent and re-stream the full edge list through a streamer.
	ColdRebuildSeconds float64
	// Speedup is cold/warm.
	Speedup float64
	// BaselineNsPerStep/CkptNsPerStep compare a measured PageRank pass
	// without durability against one checkpointing every superstep.
	BaselineNsPerStep float64
	CkptNsPerStep     float64
	OverheadPct       float64
	// Snapshots/SnapshotBytes are the durable cluster's writer totals at
	// the end of the experiment (post-dedup bytes).
	Snapshots     uint64
	SnapshotBytes uint64
}

// recoveryConfig tightens the failure detector below the defaults so the
// kill is noticed quickly, but keeps enough slack (20 missed heartbeats)
// that a loaded host cannot false-evict a live agent mid-experiment —
// the eviction wait happens before the measured recovery window starts,
// so the lease length never skews the reported times.
func recoveryConfig() config.Config {
	cfg := baseConfig()
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.LeaseTimeout = 2 * time.Second
	cfg.RequestTimeout = 60 * time.Second
	return cfg
}

// recoveryCall is the polling CallOpts the observer uses while the
// cluster is mid-churn.
var recoveryCall = client.CallOpts{Timeout: 10 * time.Second, Retry: transport.Retry{Attempts: 5, PerTry: 300 * time.Millisecond}}

// waitAgents polls an observer client until the view reaches the wanted
// membership.
func waitAgents(observer *client.Client, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, _ = observer.QueryWith(0, recoveryCall)
		if observer.NumAgents() == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery: members %d, want %d", observer.NumAgents(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitCopies polls until the cluster stores exactly want edge copies.
func waitCopies(c *cluster.Cluster, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		total := 0
		for _, n := range c.EdgeCounts() {
			total += n
		}
		if total == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery: %d copies, want %d", total, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// killAndEvict fail-stops agent index i and waits for the coordinator to
// evict it, returning the killed agent's durable slot.
func killAndEvict(c *cluster.Cluster, fn *transport.FaultNetwork, observer *client.Client, i int) (int, error) {
	slot := c.AgentSlot(i)
	fn.Kill(c.Agents()[i].Addr())
	if err := c.KillAgent(i); err != nil {
		return 0, err
	}
	if err := waitAgents(observer, c.NumAgents()); err != nil {
		return 0, err
	}
	return slot, nil
}

// MeasureRecovery runs the durability experiment: measured PageRank with
// and without every-superstep checkpointing, then the same agent kill
// recovered warm (checkpoint restore + reconciliation) and cold (fresh
// agent + full re-stream).
func MeasureRecovery(s Scale) (*RecoveryPerf, error) {
	nodes, edges, steps := 16_384, 1<<17, uint32(8)
	if s == Quick {
		nodes, edges, steps = 4_096, 1<<15, 5
	}
	const agents = 4
	el := gen.Uniform(nodes, edges, 7).Dedupe()
	cfg := recoveryConfig()

	dir, err := os.MkdirTemp("", "elga-recovery-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out := &RecoveryPerf{
		Graph:      fmt.Sprintf("uniform-%d-%d", nodes, len(el)),
		Agents:     agents,
		EdgeCopies: 2 * len(el),
	}

	// Cold side first: durability off. The measured pass is the overhead
	// baseline; the kill is recovered by booting a fresh agent and
	// re-streaming the whole edge list.
	coldSecs, baseNs, err := runRecoveryVariant(cfg, agents, el, steps, nil,
		func(c *cluster.Cluster) error {
			if _, err := c.AddAgent(); err != nil {
				return err
			}
			return c.Load(el)
		})
	if err != nil {
		return nil, fmt.Errorf("cold variant: %w", err)
	}
	out.ColdRebuildSeconds = coldSecs
	out.BaselineNsPerStep = baseNs

	// Warm side: checkpoint every superstep (the maximal-overhead
	// cadence), recover by restarting the killed slot from its snapshot.
	dur := &checkpoint.Config{Enabled: true, Dir: dir, EverySteps: 1}
	var snapCount, snapBytes uint64
	warmSecs, ckptNs, err := runRecoveryVariant(cfg, agents, el, steps, dur,
		func(c *cluster.Cluster) error {
			slot := -1
			for s := 0; s < agents; s++ {
				live := false
				for i := 0; i < c.NumAgents(); i++ {
					if c.AgentSlot(i) == s {
						live = true
						break
					}
				}
				if !live {
					slot = s
					break
				}
			}
			if slot < 0 {
				return fmt.Errorf("no dead slot to restart")
			}
			_, err := c.RestartAgent(slot)
			snapCount, _, _, snapBytes = c.CheckpointStats()
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("warm variant: %w", err)
	}
	out.WarmRestoreSeconds = warmSecs
	out.CkptNsPerStep = ckptNs
	out.Snapshots = snapCount
	out.SnapshotBytes = snapBytes
	if warmSecs > 0 {
		out.Speedup = coldSecs / warmSecs
	}
	if baseNs > 0 {
		out.OverheadPct = (ckptNs - baseNs) / baseNs * 100
	}
	return out, nil
}

// runRecoveryVariant boots one cluster (durable when dur is non-nil),
// measures a PageRank pass, kills an agent, recovers via the supplied
// path, and returns the recovery seconds plus the measured ns/step.
func runRecoveryVariant(cfg config.Config, agents int, el graph.EdgeList, steps uint32,
	dur *checkpoint.Config, recover func(*cluster.Cluster) error) (recoverySecs, nsPerStep float64, err error) {
	fn := transport.NewFaultNetwork(transport.NewInproc(), transport.FaultConfig{})
	c, err := cluster.New(cluster.Options{Config: cfg, Agents: agents, Network: fn, Durability: dur})
	if err != nil {
		return 0, 0, err
	}
	defer c.Shutdown()
	if err := c.Load(el); err != nil {
		return 0, 0, err
	}
	observer, err := c.NewClient()
	if err != nil {
		return 0, 0, err
	}
	defer observer.Close()

	// Warm-up pass, then the measured one (run completion checkpoints on
	// the durable variant, so the kill always has a fresh snapshot).
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true, Timeout: 60 * time.Second}); err != nil {
		return 0, 0, err
	}
	st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true, Timeout: 60 * time.Second})
	if err != nil {
		return 0, 0, err
	}
	if st.Steps > 0 {
		nsPerStep = float64(st.Wall) / float64(st.Steps)
	}

	if _, err := killAndEvict(c, fn, observer, 1); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := recover(c); err != nil {
		return 0, 0, err
	}
	if err := waitAgents(observer, agents); err != nil {
		return 0, 0, err
	}
	if err := waitCopies(c, 2*len(el)); err != nil {
		return 0, 0, err
	}
	return time.Since(start).Seconds(), nsPerStep, nil
}

// Recovery renders MeasureRecovery as a report table for the experiment
// runner ("recovery" in the registry).
func Recovery(s Scale) (*Report, error) {
	p, err := MeasureRecovery(s)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "recovery",
		Title:  "Durable checkpoints: warm-restore recovery vs cold re-stream, and superstep overhead",
		Header: []string{"variant", "recovery", "ns/step", "snapshots", "snapshot MiB"},
	}
	r.AddRow("cold re-stream", fmtDur(p.ColdRebuildSeconds), fmt.Sprintf("%.0f", p.BaselineNsPerStep), "0", "0")
	r.AddRow("warm restore", fmtDur(p.WarmRestoreSeconds), fmt.Sprintf("%.0f", p.CkptNsPerStep),
		fmt.Sprintf("%d", p.Snapshots), fmt.Sprintf("%.2f", float64(p.SnapshotBytes)/(1<<20)))
	r.AddNote("warm restore recovered %d copies %.1fx faster than the cold re-stream; every-superstep checkpointing cost %+.1f%% ns/step on %s",
		p.EdgeCopies, p.Speedup, p.OverheadPct, p.Graph)
	return r, nil
}
