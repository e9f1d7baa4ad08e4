package directory

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"elga/internal/autoscale"
	"elga/internal/events"
	"elga/internal/trace"
	"elga/internal/wire"
)

// Coordinator-side health model: per-agent rollups fusing the autoscale
// metric EMAs, barrier-wait span aggregates, and timeline event counts
// into one scored status per agent — healthy, lagging, straggler, or
// suspect — with a straggler attributor naming the dominant cause. The
// model is owned by the coordinator event loop (every observation
// arrives there); evaluations run on the lease-sweep cadence and on
// TStatus requests.

// Scoring rubric (see DESIGN.md "Health & events"):
//
//   - suspect:   heartbeat silent for more than half the lease timeout —
//     the agent is one sweep from eviction, so its other signals are
//     already stale.
//   - straggler: step-time EMA at least 2x the cluster median.
//   - lagging:   step-time EMA at least 1.3x the cluster median.
//   - healthy:   everything else.
//
// The attributor compares each candidate signal against its own cluster
// median and names the largest relative excess: inbox-backlog (inbox +
// send-queue depth), combine-time, retransmits, or checkpoint-overlap
// (a checkpoint event landed within the overlap window of the slow
// steps). When nothing stands out the cause is compute-skew — the agent
// is slow on raw compute, typically a placement imbalance.
const (
	laggingRatio   = 1.3
	stragglerRatio = 2.0
	// causeRatio is the minimum relative excess over the cluster median
	// for a signal to be named the dominant cause.
	causeRatio = 1.2
	// ckptOverlapWindow is how recently a checkpoint event must have
	// landed to blame checkpoint overlap for a slow step.
	ckptOverlapWindow = 5 * time.Second
)

// Straggler cause names, as they appear in AgentHealth.Cause and the
// elga status view.
const (
	CauseInboxBacklog      = "inbox-backlog"
	CauseCombineTime       = "combine-time"
	CauseRetransmits       = "retransmits"
	CauseCheckpointOverlap = "checkpoint-overlap"
	CauseComputeSkew       = "compute-skew"
	CauseHeartbeatSilence  = "heartbeat-silence"
)

// agentVitals is one agent's fused signal state.
type agentVitals struct {
	step     *autoscale.EMA // compute-phase seconds
	combine  *autoscale.EMA // combine-phase seconds
	inbox    *autoscale.EMA // transport inbox occupancy
	queue    *autoscale.EMA // send-queue depth
	retrans  *autoscale.EMA // retransmits per report
	gorout   *autoscale.EMA // process goroutine count
	barrier  *autoscale.EMA // barrier-wait seconds (from span aggregates)
	events   uint64         // timeline events attributed to this agent
	lastCkpt time.Time      // most recent checkpoint event
	status   uint8
	cause    string
}

type healthModel struct {
	halfLife time.Duration
	agents   map[uint64]*agentVitals
}

func newHealthModel(halfLife time.Duration) *healthModel {
	if halfLife <= 0 {
		halfLife = 30 * time.Second
	}
	return &healthModel{halfLife: halfLife, agents: make(map[uint64]*agentVitals)}
}

func (h *healthModel) vitals(id uint64) *agentVitals {
	v, ok := h.agents[id]
	if !ok {
		v = &agentVitals{
			step:    autoscale.NewEMA(h.halfLife),
			combine: autoscale.NewEMA(h.halfLife),
			inbox:   autoscale.NewEMA(h.halfLife),
			queue:   autoscale.NewEMA(h.halfLife),
			retrans: autoscale.NewEMA(h.halfLife),
			gorout:  autoscale.NewEMA(h.halfLife),
			barrier: autoscale.NewEMA(h.halfLife),
		}
		h.agents[id] = v
	}
	return v
}

// observeMetric folds one metric sample into the reporting agent's
// vitals. Samples without agent attribution are ignored here (the
// cluster-wide SignalSet still sees them).
func (h *healthModel) observeMetric(now time.Time, m *wire.Metric) {
	if m.AgentID == 0 {
		return
	}
	v := h.vitals(m.AgentID)
	switch m.Name {
	case autoscale.MetricStepTime:
		v.step.Observe(now, m.Value)
	case autoscale.MetricCombineTime:
		v.combine.Observe(now, m.Value)
	case autoscale.MetricInboxDepth:
		v.inbox.Observe(now, m.Value)
	case autoscale.MetricQueueDepth:
		v.queue.Observe(now, m.Value)
	case autoscale.MetricRetransmits:
		v.retrans.Observe(now, m.Value)
	case autoscale.MetricGoroutines:
		v.gorout.Observe(now, m.Value)
	}
}

// agentIDFromProc parses the numeric ID out of a participant name like
// "agent-3" (0 when the name is not an agent's).
func agentIDFromProc(proc string) uint64 {
	s, ok := strings.CutPrefix(proc, "agent-")
	if !ok {
		return 0
	}
	id, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// observeSpans folds barrier-wait spans from one shipped batch into the
// owning agent's vitals — the span aggregate half of the fusion.
func (h *healthModel) observeSpans(now time.Time, proc string, spans []trace.SpanRecord) {
	id := agentIDFromProc(proc)
	if id == 0 {
		return
	}
	var v *agentVitals
	for i := range spans {
		if spans[i].Name != "barrier-wait" {
			continue
		}
		if v == nil {
			v = h.vitals(id)
		}
		v.barrier.Observe(now, spans[i].Dur.Seconds())
	}
}

// countEvent attributes one merged timeline event to its agent and
// tracks checkpoint recency for the overlap attributor.
func (h *healthModel) countEvent(rec *events.Record) {
	id := agentIDFromProc(rec.Proc)
	if id == 0 {
		if f, ok := rec.Field("agent"); ok && !f.IsStr {
			id = f.U64
		}
	}
	if id == 0 {
		return
	}
	v := h.vitals(id)
	v.events++
	if rec.Kind == events.KindCheckpoint {
		v.lastCkpt = time.Unix(0, rec.Time)
	}
}

// forget drops an agent's vitals when it leaves or is evicted, so the
// model never scores a corpse.
func (h *healthModel) forget(id uint64) {
	delete(h.agents, id)
}

// median returns the median of xs (0 when empty). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// ratio returns v/m, treating a zero median as "no basis" (ratio 1).
func ratio(v, m float64) float64 {
	if m <= 0 {
		return 1
	}
	return v / m
}

// evaluate scores every live agent and returns the rollup sorted by
// agent ID. agents/leases are the coordinator's live tables; the model
// prunes vitals for departed IDs as a safety net (forget handles the
// normal path).
func (h *healthModel) evaluate(now time.Time, agents map[uint64]string, leases map[uint64]time.Time, leaseTimeout time.Duration) []wire.AgentHealth {
	for id := range h.agents {
		if _, ok := agents[id]; !ok {
			delete(h.agents, id)
		}
	}
	ids := make([]uint64, 0, len(agents))
	for id := range agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Cluster medians, over primed signals only, so a fleet that has not
	// reported yet scores everyone healthy rather than dividing by zero.
	var steps, inboxes, combines, retranses, gorouts []float64
	for _, id := range ids {
		v, ok := h.agents[id]
		if !ok {
			continue
		}
		if v.step.Primed() {
			steps = append(steps, v.step.Value())
		}
		if v.inbox.Primed() || v.queue.Primed() {
			inboxes = append(inboxes, v.inbox.Value()+v.queue.Value())
		}
		if v.combine.Primed() {
			combines = append(combines, v.combine.Value())
		}
		if v.retrans.Primed() {
			retranses = append(retranses, v.retrans.Value())
		}
		if v.gorout.Primed() {
			gorouts = append(gorouts, v.gorout.Value())
		}
	}
	medStep := median(steps)
	medInbox := median(inboxes)
	medCombine := median(combines)
	medRetrans := median(retranses)
	medGorout := median(gorouts)

	out := make([]wire.AgentHealth, 0, len(ids))
	for _, id := range ids {
		v := h.vitals(id)
		a := wire.AgentHealth{
			AgentID:        id,
			Addr:           agents[id],
			Score:          1,
			StepSeconds:    v.step.Value(),
			CombineSeconds: v.combine.Value(),
			BarrierSeconds: v.barrier.Value(),
			InboxDepth:     v.inbox.Value(),
			QueueDepth:     v.queue.Value(),
			Retransmits:    v.retrans.Value(),
			Events:         v.events,
		}
		if last, ok := leases[id]; ok {
			a.HeartbeatAgeNanos = now.Sub(last).Nanoseconds()
		}
		if v.step.Primed() && len(steps) >= 2 {
			a.Score = ratio(v.step.Value(), medStep)
		}
		switch {
		case leaseTimeout > 0 && a.HeartbeatAgeNanos > leaseTimeout.Nanoseconds()/2:
			a.Status = wire.HealthSuspect
			a.Cause = CauseHeartbeatSilence
		case a.Score >= stragglerRatio:
			a.Status = wire.HealthStraggler
			a.Cause = h.attribute(now, v, medInbox, medCombine, medRetrans, medGorout)
		case a.Score >= laggingRatio:
			a.Status = wire.HealthLagging
			a.Cause = h.attribute(now, v, medInbox, medCombine, medRetrans, medGorout)
		default:
			a.Status = wire.HealthHealthy
		}
		v.status = a.Status
		v.cause = a.Cause
		out = append(out, a)
	}
	return out
}

// attribute names the dominant cause of an agent's slowness: the
// candidate signal with the largest relative excess over the cluster
// median, or checkpoint overlap when a checkpoint landed inside the
// window, falling back to compute-skew when nothing else stands out.
func (h *healthModel) attribute(now time.Time, v *agentVitals, medInbox, medCombine, medRetrans, medGorout float64) string {
	cause := CauseComputeSkew
	best := causeRatio
	if r := ratio(v.inbox.Value()+v.queue.Value(), medInbox); (v.inbox.Primed() || v.queue.Primed()) && r > best {
		cause, best = CauseInboxBacklog, r
	}
	// A goroutine-count excess is runaway concurrency — more evidence of
	// a backed-up inbox (handler pile-up) than of slow compute.
	if r := ratio(v.gorout.Value(), medGorout); v.gorout.Primed() && r > best {
		cause, best = CauseInboxBacklog, r
	}
	if r := ratio(v.combine.Value(), medCombine); v.combine.Primed() && r > best {
		cause, best = CauseCombineTime, r
	}
	if r := ratio(v.retrans.Value(), medRetrans); v.retrans.Primed() && r > best {
		cause, best = CauseRetransmits, r
	}
	if !v.lastCkpt.IsZero() && now.Sub(v.lastCkpt) < ckptOverlapWindow {
		// A checkpoint inside the window beats the median comparisons:
		// the overlap is a direct observation, not a relative one.
		cause = CauseCheckpointOverlap
	}
	return cause
}
