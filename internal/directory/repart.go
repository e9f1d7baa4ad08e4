package directory

import (
	"time"

	"elga/internal/consistent"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/repartition"
	"elga/internal/trace"
)

// Coordinator side of adaptive repartitioning (see internal/repartition):
// the digest sections of agent reports feed the planner; when every live
// agent has reported and the cluster sits at a safe point (a superstep
// boundary or full idle), the coordinator turns the plan into placement
// overrides, bumps the epoch, and runs an ordinary migration round so
// agents re-own copies under the new placement. Overrides ride every view
// broadcast, so the routers' route tables restart exactly like on any
// other view change.

// maybeRepartition plans and executes one repartition round. It must only
// be called at a safe point: no migration or seal in flight, and any run
// paused at a superstep boundary. Returns true when a round started (the
// epoch bumped and a migration barrier is open).
func (d *Directory) maybeRepartition() bool {
	p := d.planner
	if p == nil || len(d.agents) < 2 {
		return false
	}
	// Gate on full digest coverage: planning from one early reporter
	// would see only that agent's traffic and produce a lopsided plan.
	if p.Reporters() < len(d.agents) || p.Pending() == 0 {
		return false
	}
	start := time.Now()
	members := make([]consistent.AgentID, 0, len(d.agents))
	for id := range d.agents {
		members = append(members, consistent.AgentID(id))
	}
	moves := p.Plan(members, d.splitVertex)
	d.statPlanRounds.Add(1)
	d.planHist.Observe(time.Since(start).Seconds())
	if len(moves) == 0 {
		return false
	}
	// Every move becomes (or replaces) an override entry. The directory
	// keeps no ring, so a move that happens to match the vertex's natural
	// hash placement still gets an entry — the router resolves it to the
	// same owner, so the only cost is a table slot.
	for _, m := range moves {
		d.overrides[m.Vertex] = uint64(m.To)
	}
	d.statMoves.Add(uint64(len(moves)))
	d.statOverrides.Store(int64(len(d.overrides)))
	d.event(events.Info, events.KindRepartitionPlan, trace.SpanContext{},
		events.U("round", uint64(p.Round())), events.U("moves", uint64(len(moves))),
		events.U("overrides", uint64(len(d.overrides))))

	// Same machinery as a membership change: new epoch, new view (now
	// carrying the overrides), and a migration barrier so every agent
	// re-evaluates copy ownership before computation resumes.
	d.epoch++
	d.broadcastView()
	expected := make(map[uint64]bool, len(d.agents))
	for id := range d.agents {
		expected[id] = true
	}
	d.migration = &migrationState{
		epochLow: uint32(d.epoch),
		expected: expected,
		votes:    make(map[uint64]bool),
	}
	d.event(events.Info, events.KindMigrationStart, trace.SpanContext{},
		events.U("epoch", d.epoch), events.U("expected", uint64(len(expected))))
	d.maybeFinishMigration()
	return true
}

// maybeRepartitionIdle runs a repartition round when the cluster is fully
// idle — digests often complete after a run ends (agents flush at
// TAlgoDone), so waiting for the next superstep boundary could postpone
// the plan past the workload that motivated it.
func (d *Directory) maybeRepartitionIdle() {
	if d.run != nil || d.seal != nil || d.migration != nil {
		return
	}
	if len(d.pendingJoins) > 0 || len(d.pendingLeaves) > 0 ||
		len(d.pendingSeals) > 0 || len(d.pendingRuns) > 0 {
		return
	}
	d.maybeRepartition()
}

// splitVertex reports whether v is replicated under the current sketch.
// Split vertices keep their ring-derived replica set: the router only
// honors overrides for unsplit vertices, so planning a move for one would
// burn a slot on a no-op.
func (d *Directory) splitVertex(v graph.VertexID) bool {
	return d.opts.Config.Replicas(d.sk.Estimate(uint64(v)), d.sk.Count(), len(d.agents)) > 1
}

// pruneOverrides drops overrides whose target is no longer a member and
// tells the planner to forget departed agents, returning how many
// entries were pruned. Callers bump the epoch and broadcast right after,
// so the pruned table reaches agents atomically with the membership
// change; pruned vertices fall back to their ring placement on the
// survivors (the router also ignores dangling targets, so even an
// un-pruned straggler view cannot route at a corpse).
func (d *Directory) pruneOverrides(gone []uint64) int {
	if d.planner != nil {
		for _, id := range gone {
			d.planner.Forget(consistent.AgentID(id))
		}
	}
	if len(d.overrides) == 0 {
		return 0
	}
	pruned := 0
	for v, aid := range d.overrides {
		if _, ok := d.agents[aid]; !ok {
			delete(d.overrides, v)
			pruned++
		}
	}
	d.statOverrides.Store(int64(len(d.overrides)))
	return pruned
}

// RepartitionStats exposes the planner counters for tests and tooling:
// cumulative executed moves, completed plan rounds, and the live override
// count. Race-safe.
func (d *Directory) RepartitionStats() (moves, rounds uint64, overrides int64) {
	return d.statMoves.Load(), d.statPlanRounds.Load(), d.statOverrides.Load()
}

// RepartitionConfig returns the effective planner configuration, or nil
// when repartitioning is disabled.
func (d *Directory) RepartitionConfig() *repartition.Config {
	if d.planner == nil {
		return nil
	}
	cfg := d.planner.Config()
	return &cfg
}
