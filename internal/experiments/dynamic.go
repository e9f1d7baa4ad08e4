package experiments

import (
	"fmt"
	"sync"
	"time"

	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/baseline/bsp"
	"elga/internal/baseline/snapshot"
	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/consistent"
	"elga/internal/datasets"
	"elga/internal/gen"
	"elga/internal/graph"
	"elga/internal/stats"
	"elga/internal/wire"
)

// Fig15 maintains connectivity over many insert batches on a
// Twitter-like graph: per-batch runtime and iterations for ElGA's
// incremental WCC, against the snapshot-restart baseline.
func Fig15(s Scale) (*Report, error) {
	r := &Report{
		ID:     "fig15",
		Title:  "Incremental WCC over insert batches vs snapshot recompute",
		Header: []string{"batch size", "batches", "elga min/avg/max", "elga iters avg", "snapshot avg", "speedup", "speedup w/ GraphX 49.45s floor"},
	}
	el, err := datasets.Load("twitter")
	if err != nil {
		return nil, err
	}
	numBatches := 20
	sizes := []int{1, 16, 256}
	if s == Quick {
		numBatches = 5
		sizes = []int{1, 64}
	}
	for _, size := range sizes {
		// The paper's change model: delete a random sample, add it back
		// in batches.
		_, insertions, remaining := gen.SampleBatch(el, size*numBatches, int64(size))
		c, err := newCluster(baseConfig(), 4, remaining)
		if err != nil {
			return nil, err
		}
		if _, err := c.Run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
			c.Shutdown()
			return nil, err
		}
		snap := snapshot.New(remaining, 8)
		snap.RunFromScratch(algorithm.WCC{}, bsp.Options{Workers: 8})

		var elgaTimes, snapTimes, iters []float64
		for b := 0; b < numBatches; b++ {
			batch := graph.Batch(insertions[b*size : (b+1)*size])
			start := time.Now()
			if err := c.ApplyBatch(batch); err != nil {
				c.Shutdown()
				return nil, err
			}
			st, err := c.Run(client.RunSpec{Algo: "wcc"})
			if err != nil {
				c.Shutdown()
				return nil, err
			}
			elgaTimes = append(elgaTimes, time.Since(start).Seconds())
			iters = append(iters, float64(st.Steps))

			res := snap.ApplyBatch(algorithm.WCC{}, batch, bsp.Options{Workers: 8})
			snapTimes = append(snapTimes, res.Elapsed.Seconds())
		}
		c.Shutdown()
		speedup := stats.Mean(snapTimes) / stats.Mean(elgaTimes)
		// The paper's GraphX baseline never completed a batch under
		// 49.45s due to cluster startup/teardown; adding that floor
		// shows what the Fig. 15 comparison measures on real hardware.
		const graphxFloor = 49.45
		paperSpeedup := (stats.Mean(snapTimes) + graphxFloor) / stats.Mean(elgaTimes)
		r.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", numBatches),
			fmt.Sprintf("%s/%s/%s", fmtDur(stats.Percentile(elgaTimes, 0)),
				fmtDur(stats.Mean(elgaTimes)), fmtDur(stats.Percentile(elgaTimes, 100))),
			fmt.Sprintf("%.1f", stats.Mean(iters)),
			fmtDur(stats.Mean(snapTimes)),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%.0fx", paperSpeedup))
	}
	r.AddNote("paper Fig. 15: ElGA single-edge batches 0.025-0.59s vs GraphX >=49.45s (83x-1962x). The bare stand-in speedup isolates the rebuild-vs-incremental gap; the floored column adds GraphX's documented per-batch startup cost, and lands above the paper's range because a stand-in batch takes milliseconds, not the paper's tenths of a second")
	return r, nil
}

// Fig16 measures elasticity cost: the fraction of edges moved and the
// wall time when one agent joins and a random one leaves.
func Fig16(s Scale) (*Report, error) {
	r := &Report{
		ID:     "fig16",
		Title:  "Cost of adding then removing one agent",
		Header: []string{"graph", "agents", "% moved (add)", "% moved (remove)", "add time", "remove time", "ring-predicted %"},
	}
	names := []string{"twitter", "livejournal"}
	if s == Quick {
		names = names[:1]
	}
	const agents = 8
	for _, name := range names {
		el, err := datasets.Load(name)
		if err != nil {
			return nil, err
		}
		cfg := baseConfig()
		c, err := newCluster(cfg, agents, el)
		if err != nil {
			return nil, err
		}
		totalCopies := 0
		for _, n := range c.EdgeCounts() {
			totalCopies += n
		}
		before := appliedTotal(c)
		start := time.Now()
		if _, err := c.AddAgent(); err != nil {
			c.Shutdown()
			return nil, err
		}
		if err := c.Seal(); err != nil {
			c.Shutdown()
			return nil, err
		}
		addTime := time.Since(start)
		addedMoved := float64(appliedTotal(c) - before)
		// The remove phase: every copy the leaver holds moves, so its
		// pre-departure copy count is the exact moved volume.
		leaver := c.Agents()[c.NumAgents()-1]
		removedMoved := float64(leaver.EdgeCopies())
		start = time.Now()
		if err := c.RemoveAgent(c.NumAgents() - 1); err != nil {
			c.Shutdown()
			return nil, err
		}
		if err := c.Seal(); err != nil {
			c.Shutdown()
			return nil, err
		}
		removeTime := time.Since(start)

		// Ring-level prediction: fraction of key space that moves.
		members := make([]consistent.AgentID, agents)
		for i := range members {
			members[i] = consistent.AgentID(i + 1)
		}
		ring := consistent.New(members, consistent.Options{Virtual: cfg.Virtual, Hash: cfg.Hash})
		grown := ring.WithMember(consistent.AgentID(agents + 1))
		predicted := consistent.MovedFraction(ring, grown, 20000)

		c.Shutdown()
		r.AddRow(name, fmt.Sprintf("%d", agents),
			fmt.Sprintf("%.1f%%", 100*addedMoved/float64(totalCopies)),
			fmt.Sprintf("%.1f%%", 100*removedMoved/float64(totalCopies)),
			addTime.Round(time.Millisecond).String(),
			removeTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", 100*predicted))
	}
	r.AddNote("moved fraction tracks the consistent-hashing prediction ~1/(P+1) (paper Fig. 16a); times are dominated by the migration barrier, not data volume")
	return r, nil
}

// appliedTotal sums each live agent's applied-change counter; the delta
// across an elastic event counts migration-received copies.
func appliedTotal(c *cluster.Cluster) uint64 {
	var total uint64
	for _, a := range c.Agents() {
		_, applied, _ := a.Stats()
		total += applied
	}
	return total
}

// Fig17 scales a running PageRank up and back down mid-computation.
func Fig17(s Scale) (*Report, error) {
	r := &Report{
		ID:     "fig17",
		Title:  "Manual elastic scaling during PageRank (scale up mid-run, down after)",
		Header: []string{"phase", "agents", "detail"},
	}
	el, err := datasets.Load("gowalla")
	if err != nil {
		return nil, err
	}
	if s == Quick {
		el = el[:len(el)/4]
	}
	startAgents, peakAgents := 2, 6
	c, err := newCluster(baseConfig(), startAgents, el)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()

	// Fixed-iteration run; scale up from another goroutine after a beat
	// (the operator of §4.9).
	var wg sync.WaitGroup
	var scaleErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		for i := startAgents; i < peakAgents; i++ {
			if _, err := c.AddAgent(); err != nil {
				scaleErr = err
				return
			}
		}
	}()
	start := time.Now()
	st, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true})
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if scaleErr != nil {
		return nil, scaleErr
	}
	scaledWall := time.Since(start)
	r.AddRow("scale-up mid-run", fmt.Sprintf("%d->%d", startAgents, c.NumAgents()),
		fmt.Sprintf("10 iterations in %s (steps recorded: %d)", scaledWall.Round(time.Millisecond), st.Steps))

	// Scale back down after the computation (cost savings phase).
	start = time.Now()
	for c.NumAgents() > startAgents {
		if err := c.RemoveAgent(c.NumAgents() - 1); err != nil {
			return nil, err
		}
	}
	r.AddRow("scale-down post-run", fmt.Sprintf("%d->%d", peakAgents, c.NumAgents()),
		fmt.Sprintf("drained in %s", time.Since(start).Round(time.Millisecond)))

	// Reference: the same run without scaling.
	c2, err := newCluster(baseConfig(), startAgents, el)
	if err != nil {
		return nil, err
	}
	defer c2.Shutdown()
	start = time.Now()
	if _, err := c2.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		return nil, err
	}
	fixedWall := time.Since(start)
	r.AddRow("fixed-size reference", fmt.Sprintf("%d", startAgents),
		fmt.Sprintf("10 iterations in %s", fixedWall.Round(time.Millisecond)))
	r.AddNote("the computation continues across the mid-run scale-up and completes correctly (paper Fig. 17); wall-clock benefit appears once per-iteration compute dominates the migration pause")
	return r, nil
}

// Fig18 drives the reactive autoscaler with a step-function client query
// load and reports target vs actual agent counts over time.
func Fig18(s Scale) (*Report, error) {
	r := &Report{
		ID:     "fig18",
		Title:  "Reactive autoscaling under a step-function query load",
		Header: []string{"t", "load (q/s)", "ema", "target", "agents"},
	}
	el, err := datasets.Load("twitter")
	if err != nil {
		return nil, err
	}
	if s == Quick {
		el = el[:len(el)/4]
	}
	policy := autoscale.Policy{PerAgentCapacity: 400, Min: 1, Max: 8, Cooldown: 300 * time.Millisecond}
	as := autoscale.New(150*time.Millisecond, policy, 2)

	metricCh := make(chan *wire.Metric, 1024)
	c, err := cluster.New(cluster.Options{
		Config: baseConfig(), Agents: 2,
		MetricHandler: func(m *wire.Metric) {
			select {
			case metricCh <- m:
			default:
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	if err := c.Load(el); err != nil {
		return nil, err
	}
	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 3, FromScratch: true}); err != nil {
		return nil, err
	}
	cl, err := c.NewClient()
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// Step function: queries per 50ms tick.
	steps := []struct {
		ticks int
		qps   float64
	}{{8, 200}, {8, 2400}, {8, 600}}
	if s == Quick {
		steps = []struct {
			ticks int
			qps   float64
		}{{4, 200}, {4, 2400}}
	}
	tick := 50 * time.Millisecond
	elapsed := time.Duration(0)
	for _, stp := range steps {
		for i := 0; i < stp.ticks; i++ {
			perTick := int(stp.qps * tick.Seconds())
			for q := 0; q < perTick; q++ {
				if _, _, err := cl.Query(graph.VertexID(q % 512)); err != nil {
					return nil, err
				}
			}
			now := time.Now()
			as.Observe(now, stp.qps)
			d := as.Decide(now)
			if d.Applied {
				for c.NumAgents() < d.Target {
					if _, err := c.AddAgent(); err != nil {
						return nil, err
					}
				}
				for c.NumAgents() > d.Target {
					if err := c.RemoveAgent(c.NumAgents() - 1); err != nil {
						return nil, err
					}
				}
			}
			elapsed += tick
			r.AddRow(elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", stp.qps),
				fmt.Sprintf("%.0f", as.Load()),
				fmt.Sprintf("%d", d.Target),
				fmt.Sprintf("%d", c.NumAgents()))
		}
	}
	r.AddNote("agent count converges to the autoscaler target after each load step (paper Fig. 18: 'ElGA quickly converges to the autoscaler's target')")
	return r, nil
}

// Registry maps experiment IDs to their runners.
var Registry = map[string]func(Scale) (*Report, error){
	"table2":    Table2,
	"fig4":      Fig4,
	"fig5":      Fig5,
	"fig6":      Fig6,
	"fig7":      Fig7,
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"fig13":     Fig13,
	"fig14":     Fig14,
	"fig15":     Fig15,
	"storage":   Storage,
	"fig16":     Fig16,
	"fig17":     Fig17,
	"fig18":     Fig18,
	"net":       Net,
	"abl-split": AblSplit,
	"recovery":  Recovery,
}

// Order lists experiment IDs in paper order.
var Order = []string{
	"table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "storage", "fig16", "fig17",
	"fig18", "net", "abl-split", "recovery",
}
