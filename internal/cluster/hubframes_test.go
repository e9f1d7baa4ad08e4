package cluster

import (
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
)

// hubConfig splits every vertex of total degree threshold or more.
func hubConfig(threshold uint64) config.Config {
	cfg := testConfig()
	cfg.SketchWidth = 4096
	cfg.ReplicationThreshold = threshold
	cfg.MaxReplicas = 4
	return cfg
}

func rmat12() graph.EdgeList {
	return gen.RMAT(12, 32768, gen.Graph500Params(), 7).Dedupe()
}

// hubCount is how many vertices of el have a total degree of at least
// threshold: a lower bound on how many the sketch splits.
func hubCount(el graph.EdgeList, threshold uint64) int {
	deg := map[graph.VertexID]uint64{}
	for _, e := range el {
		deg[e.Src]++
		deg[e.Dst]++
	}
	n := 0
	for _, d := range deg {
		if d >= threshold {
			n++
		}
	}
	return n
}

// TestSplitHubsSurviveMidRunJoinAndLeave: with dozens of split vertices —
// so every partial and value-update frame carries many records — an agent
// joins and the oldest leaves while the run is in flight. Mastership moves
// under frames already sent, which must be re-bucketed record by record;
// PageRank and WCC still equal the static reference.
func TestSplitHubsSurviveMidRunJoinAndLeave(t *testing.T) {
	const threshold = 48
	el := rmat12()
	if hubs := hubCount(el, threshold); hubs < 50 {
		t.Fatalf("only %d hubs at threshold %d; the test needs 50", hubs, threshold)
	}
	for _, tc := range []struct {
		spec client.RunSpec
		prog algorithm.Program
		opts algorithm.RunOptions
		tol  float64
	}{
		{client.RunSpec{Algo: "pagerank", MaxSteps: 30, FromScratch: true},
			algorithm.PageRank{}, algorithm.RunOptions{MaxSteps: 30}, 1e-8},
		{client.RunSpec{Algo: "wcc", FromScratch: true}, algorithm.WCC{}, algorithm.RunOptions{}, 0},
	} {
		t.Run(tc.spec.Algo, func(t *testing.T) {
			c := newCluster(t, 4, hubConfig(threshold))
			if err := c.Load(el); err != nil {
				t.Fatal(err)
			}
			// Slow supersteps keep the run in flight while membership moves.
			for _, a := range c.Agents() {
				a.SetComputeDelay(3 * time.Millisecond)
			}
			done := make(chan error, 1)
			go func() {
				if _, err := c.AddAgent(); err != nil {
					done <- err
					return
				}
				done <- c.RemoveAgent(0)
			}()
			if _, err := c.Run(tc.spec); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := c.Seal(); err != nil { // closes whichever round is still open
				t.Fatal(err)
			}
			checkAgainstReference(t, c, tc.prog, el, tc.opts, tc.tol)
		})
	}
}

// framesPerStep runs 20 PageRank supersteps on four static agents and
// returns the frames the agents sent per superstep, with the hub count.
func framesPerStep(t *testing.T, el graph.EdgeList, threshold uint64) (frames float64, hubs int) {
	t.Helper()
	c := newCluster(t, 4, hubConfig(threshold))
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	run := func() {
		st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 20, FromScratch: true})
		if err != nil || st.Steps != 20 {
			t.Fatalf("pagerank: %v, stats %+v", err, st)
		}
	}
	run() // connections, route tables
	before := c.TransportStats().FramesOut
	run()
	return float64(c.TransportStats().FramesOut-before) / 20, hubCount(el, threshold)
}

// TestFramesPerStepIndependentOfHubCount: a superstep's frame count is a
// function of the membership, not of how many vertices are split — halving
// the threshold about doubles the hubs and leaves frames per step where they
// were, where one frame per hub per replica grew them in proportion.
func TestFramesPerStepIndependentOfHubCount(t *testing.T) {
	el := rmat12()
	few, fewHubs := framesPerStep(t, el, 96)
	many, manyHubs := framesPerStep(t, el, 48)
	t.Logf("%d hubs: %.0f frames/step; %d hubs: %.0f frames/step", fewHubs, few, manyHubs, many)
	if manyHubs < 50 || float64(manyHubs) < 1.5*float64(fewHubs) {
		t.Fatalf("hub counts %d and %d do not separate the two runs", fewHubs, manyHubs)
	}
	if many > 1.1*few {
		t.Fatalf("frames per step grew from %.0f to %.0f with the hub count (%d to %d)",
			few, many, fewHubs, manyHubs)
	}
}
