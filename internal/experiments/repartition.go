package experiments

import (
	"fmt"
	"time"

	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/repartition"
)

// CutStats is one placement variant's traffic profile over a measured
// PageRank run: how much scatter volume stayed on-agent versus crossing
// the network, and the per-step wall time it cost.
type CutStats struct {
	LocalMsgs   uint64
	RemoteMsgs  uint64
	RemoteBytes uint64
	CutRatio    float64
	NsPerStep   float64
}

// RepartitionPerf is the repartitioning experiment's record: the same
// community-structured workload measured under hash-only placement and
// under the adaptive planner, plus the planner's own activity counters. CutRatio and RemoteBytes falling from Baseline to
// Repart is the experiment's point.
type RepartitionPerf struct {
	Graph       string
	Agents      int
	Communities int
	Steps       uint64
	Baseline    CutStats
	Repart      CutStats
	Moves       uint64
	PlanRounds  uint64
	Overrides   int64
}

// cutStats runs one measured PageRank pass on c and returns the traffic
// deltas it produced. The comm ledgers are cumulative, so deltas isolate
// the measured run from warm-up traffic.
func cutStats(c *cluster.Cluster, steps uint32) (CutStats, error) {
	l0, r0, b0 := c.CommStats()
	st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true})
	if err != nil {
		return CutStats{}, err
	}
	l1, r1, b1 := c.CommStats()
	out := CutStats{
		LocalMsgs:   l1 - l0,
		RemoteMsgs:  r1 - r0,
		RemoteBytes: b1 - b0,
	}
	if tot := out.LocalMsgs + out.RemoteMsgs; tot > 0 {
		out.CutRatio = float64(out.RemoteMsgs) / float64(tot)
	}
	if st.Steps > 0 {
		out.NsPerStep = float64(st.Wall) / float64(st.Steps)
	}
	return out, nil
}

// MeasureRepartition compares hash-only placement against the adaptive
// repartitioner on a planted-partition graph — the workload where hash
// placement is maximally wrong (communities scatter across all agents)
// and locality-aware moves can win the most back.
func MeasureRepartition(s Scale) (*RepartitionPerf, error) {
	nodes, edges, steps := 8_192, 1<<16, uint32(8)
	if s == Quick {
		nodes, edges, steps = 2_048, 1<<14, 5
	}
	const agents, comms = 4, 8
	el := gen.Community(gen.CommunityParams{
		N: nodes, Communities: comms, Edges: edges, PIntra: 0.9,
	}, 42)

	out := &RepartitionPerf{
		Graph:       fmt.Sprintf("community-%d-%d", nodes, comms),
		Agents:      agents,
		Communities: comms,
		Steps:       uint64(steps),
	}

	// Baseline: comm accounting on (so the ledger fills) but no planner —
	// the coordinator never moves anything, placement stays pure hash.
	// The accounting itself is branch-cheap, so both variants pay it and
	// the ns/step columns stay comparable.
	base, err := newRepartCluster(el, agents, nil)
	if err != nil {
		return nil, err
	}
	out.Baseline, err = cutStats(base, steps)
	base.Shutdown()
	if err != nil {
		return nil, err
	}

	// Repartitioned: warm runs generate digests (agents flush at run end),
	// the planner executes rounds, then the same measured pass runs over
	// the improved placement.
	cfg := repartition.DefaultConfig()
	cfg.MaxMoves = nodes // let the plan relocate as much as it can justify
	cfg.MinGain = 1      // chase small gains: windows here are short runs, not hours of traffic
	rc, err := newRepartCluster(el, agents, &cfg)
	if err != nil {
		return nil, err
	}
	defer rc.Shutdown()
	rounds := 6
	if s == Quick {
		rounds = 4
	}
	if err := drivePlanRounds(rc, steps, rounds); err != nil {
		return nil, err
	}
	out.Repart, err = cutStats(rc, steps)
	if err != nil {
		return nil, err
	}
	out.Moves, out.PlanRounds, out.Overrides = rc.Coordinator().RepartitionStats()
	return out, nil
}

// newRepartCluster boots a cluster with the agents' traffic ledgers
// armed and an optional planner at the coordinator (nil = hash-only
// baseline), then loads the workload.
func newRepartCluster(el graph.EdgeList, agents int, cfg *repartition.Config) (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Options{
		Config:         baseConfig(),
		Agents:         agents,
		Repartition:    cfg,
		CommAccounting: true,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Load(el); err != nil {
		c.Shutdown()
		return nil, err
	}
	return c, nil
}

// drivePlanRounds alternates warm PageRank runs with planning rounds:
// each run ends with every agent flushing its digest, which triggers an
// idle plan at the coordinator, and the follow-up migration completes
// before the next Run is admitted. One greedy round only chases each
// vertex's single busiest peer, so convergence toward community-aligned
// placement takes several rounds.
func drivePlanRounds(c *cluster.Cluster, steps uint32, rounds int) error {
	for i := 0; i < rounds; i++ {
		before, _, _ := c.Coordinator().RepartitionStats()
		if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: steps, FromScratch: true}); err != nil {
			return err
		}
		// The digest flush and idle plan race this return; poll briefly
		// for this round's moves before generating the next window.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if moves, _, _ := c.Coordinator().RepartitionStats(); moves > before {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	moves, planned, _ := c.Coordinator().RepartitionStats()
	if moves == 0 {
		return fmt.Errorf("repartition: no moves after %d warm runs (%d rounds planned)", rounds, planned)
	}
	return nil
}

// Repartition renders MeasureRepartition as a report table for the
// experiment runner ("repart" in the registry).
func Repartition(s Scale) (*Report, error) {
	p, err := MeasureRepartition(s)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "repart",
		Title:  "Adaptive repartitioning: cut ratio and cross-agent traffic, hash-only vs planner",
		Header: []string{"placement", "cut ratio", "remote MiB", "remote msgs", "ns/step"},
	}
	row := func(name string, cs CutStats) {
		r.AddRow(name,
			fmt.Sprintf("%.3f", cs.CutRatio),
			fmt.Sprintf("%.2f", float64(cs.RemoteBytes)/(1<<20)),
			fmt.Sprintf("%d", cs.RemoteMsgs),
			fmt.Sprintf("%.0f", cs.NsPerStep))
	}
	row("hash-only", p.Baseline)
	row("repartitioned", p.Repart)
	r.AddNote("planner executed %d moves over %d rounds (%d live overrides); cut ratio %.3f -> %.3f on %s",
		p.Moves, p.PlanRounds, p.Overrides, p.Baseline.CutRatio, p.Repart.CutRatio, p.Graph)
	return r, nil
}
