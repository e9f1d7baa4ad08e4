// Package autoscale implements ElGA's metric collection API and the
// reactive autoscaler of §3.4.3/§4.9: agents report metrics (graph change
// rates, client query rates, superstep times) to the directory system; a
// reactive policy computes the exponential moving average of a chosen
// metric and scales the agent count to EMA divided by a per-agent
// capacity factor, waiting out a cooldown between decisions so the EMA
// can stabilize.
package autoscale

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Standard metric names reported by the harness and agents.
const (
	// MetricQueryRate is client queries per second per agent.
	MetricQueryRate = "query_rate"
	// MetricChangeRate is applied edge changes per second per agent.
	MetricChangeRate = "change_rate"
	// MetricStepTime is the latest superstep compute-phase duration in
	// seconds.
	MetricStepTime = "step_time"
	// MetricCombineTime is the latest combine-phase duration in seconds.
	MetricCombineTime = "combine_time"
	// MetricInboxDepth is the instantaneous transport inbox occupancy.
	MetricInboxDepth = "inbox_depth"
	// MetricQueueDepth is the total frames queued behind per-peer writers
	// (send backpressure).
	MetricQueueDepth = "queue_depth"
	// MetricMigrationBytes is bytes of migration shipments sent for one
	// view change.
	MetricMigrationBytes = "migration_bytes"
	// MetricRetransmits is acked-push retransmissions since the last
	// report (a fault/pressure signal).
	MetricRetransmits = "retransmits"
	// MetricFrontierSize is the affected-vertex frontier of the last batch
	// boundary: how many locally stored vertices the batch actually
	// touched, which bounds the first-superstep work of a delta-driven
	// recompute (a cheap proxy for incremental load).
	MetricFrontierSize = "frontier_size"
	// MetricBytesPerEdge is the store's estimated bytes per stored edge
	// copy — memory-pressure signal for scale-out decisions.
	MetricBytesPerEdge = "bytes_per_edge"
	// MetricGoroutines is the agent process's goroutine count — a
	// runaway-concurrency signal the health attributor folds into its
	// inbox-backlog evidence.
	MetricGoroutines = "goroutines"
)

// EMA is an exponential moving average over irregular samples, using a
// half-life so the smoothing is time-based rather than count-based.
type EMA struct {
	halfLife time.Duration
	value    float64
	last     time.Time
	primed   bool
}

// NewEMA creates an EMA with the given half-life.
func NewEMA(halfLife time.Duration) *EMA {
	return &EMA{halfLife: halfLife}
}

// Observe folds a sample at time now.
func (e *EMA) Observe(now time.Time, x float64) {
	if !e.primed {
		e.value, e.last, e.primed = x, now, true
		return
	}
	dt := now.Sub(e.last)
	if dt <= 0 {
		dt = time.Nanosecond
	}
	// alpha = 1 - 2^(-dt/halfLife)
	alpha := 1 - math.Exp2(-float64(dt)/float64(e.halfLife))
	e.value += alpha * (x - e.value)
	e.last = now
}

// Value returns the current average (0 before the first observation).
func (e *EMA) Value() float64 { return e.value }

// Primed reports whether at least one sample arrived.
func (e *EMA) Primed() bool { return e.primed }

// Policy converts a load EMA into a target agent count.
type Policy struct {
	// PerAgentCapacity is the load one agent should absorb (the paper's
	// "scaling factor" divisor).
	PerAgentCapacity float64
	// Min and Max clamp the target.
	Min, Max int
	// Cooldown is the wait between scaling decisions (§4.9 uses 60 s
	// after a 30 s EMA).
	Cooldown time.Duration
}

// Target maps a load value to a clamped agent count.
func (p Policy) Target(load float64) int {
	if p.PerAgentCapacity <= 0 {
		return p.Min
	}
	t := int(load/p.PerAgentCapacity + 0.999999)
	if t < p.Min {
		t = p.Min
	}
	if p.Max > 0 && t > p.Max {
		t = p.Max
	}
	return t
}

// Decision is one autoscaler verdict.
type Decision struct {
	At      time.Time
	Load    float64
	Target  int
	Applied bool // false while cooling down
}

// Autoscaler is the reactive controller. It is safe for concurrent use:
// metric observation happens on directory event loops while the harness
// polls decisions.
type Autoscaler struct {
	mu       sync.Mutex
	ema      *EMA
	policy   Policy
	current  int
	lastMove time.Time
	history  []Decision
}

// New creates an autoscaler starting at the given agent count.
func New(halfLife time.Duration, policy Policy, current int) *Autoscaler {
	return &Autoscaler{ema: NewEMA(halfLife), policy: policy, current: current}
}

// Observe folds a load sample.
func (a *Autoscaler) Observe(now time.Time, load float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ema.Observe(now, load)
}

// Load returns the smoothed load.
func (a *Autoscaler) Load() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ema.Value()
}

// Current returns the tracked agent count.
func (a *Autoscaler) Current() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.current
}

// Decide computes the target count at time now. The decision is applied
// (Current updates, cooldown restarts) only when out of cooldown and the
// target differs from the current count; the harness performs the actual
// agent add/remove.
func (a *Autoscaler) Decide(now time.Time) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := Decision{At: now, Load: a.ema.Value(), Target: a.policy.Target(a.ema.Value())}
	if a.ema.Primed() &&
		(a.lastMove.IsZero() || now.Sub(a.lastMove) >= a.policy.Cooldown) &&
		d.Target != a.current {
		a.current = d.Target
		a.lastMove = now
		d.Applied = true
	}
	a.history = append(a.history, d)
	return d
}

// History returns a copy of all decisions, the Figure 18 trace.
func (a *Autoscaler) History() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.history...)
}

// SignalSet smooths every metric name the agents report, not just the
// one the scaling policy keys on. The directory feeds it from reported
// samples; operators and the harness read per-signal EMAs to see load,
// backpressure, and fault pressure side by side. Samples are folded
// twice: into a cluster-wide EMA per name and into a per-agent EMA, so
// health scoring can compare one agent against the fleet. Forget prunes
// an agent's entries when it leaves or is evicted so nothing ever reads a
// corpse's stale EMAs.
type SignalSet struct {
	mu       sync.Mutex
	halfLife time.Duration
	signals  map[string]*EMA
	agents   map[uint64]map[string]*EMA
}

// NewSignalSet creates a set whose EMAs all share one half-life.
func NewSignalSet(halfLife time.Duration) *SignalSet {
	return &SignalSet{
		halfLife: halfLife,
		signals:  make(map[string]*EMA),
		agents:   make(map[uint64]map[string]*EMA),
	}
}

// Observe folds a sample for the named signal at time now, without
// agent attribution (harness-level signals like query rate).
func (s *SignalSet) Observe(now time.Time, name string, v float64) {
	s.mu.Lock()
	s.observeLocked(now, name, v)
	s.mu.Unlock()
}

func (s *SignalSet) observeLocked(now time.Time, name string, v float64) {
	e, ok := s.signals[name]
	if !ok {
		e = NewEMA(s.halfLife)
		s.signals[name] = e
	}
	e.Observe(now, v)
}

// ObserveAgent folds a sample attributed to one agent: the cluster-wide
// EMA and the agent's own EMA both advance. agentID 0 (unattributed
// samples) folds only the cluster-wide EMA.
func (s *SignalSet) ObserveAgent(now time.Time, agentID uint64, name string, v float64) {
	s.mu.Lock()
	s.observeLocked(now, name, v)
	if agentID != 0 {
		per, ok := s.agents[agentID]
		if !ok {
			per = make(map[string]*EMA)
			s.agents[agentID] = per
		}
		e, ok := per[name]
		if !ok {
			e = NewEMA(s.halfLife)
			per[name] = e
		}
		e.Observe(now, v)
	}
	s.mu.Unlock()
}

// AgentValue returns agentID's smoothed value for name and whether that
// agent ever reported it.
func (s *SignalSet) AgentValue(agentID uint64, name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.agents[agentID][name]
	if !ok {
		return 0, false
	}
	return e.Value(), e.Primed()
}

// AgentIDs returns the agents with per-agent signals, in ascending order.
func (s *SignalSet) AgentIDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.agents))
	for id := range s.agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Forget drops every per-agent EMA for agentID. Call when the agent is
// evicted or leaves; the cluster-wide EMAs keep their history.
func (s *SignalSet) Forget(agentID uint64) {
	s.mu.Lock()
	delete(s.agents, agentID)
	s.mu.Unlock()
}

// Value returns the smoothed value for name and whether the signal has
// ever been observed.
func (s *SignalSet) Value(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.signals[name]
	if !ok {
		return 0, false
	}
	return e.Value(), e.Primed()
}

// Names returns the observed signal names in sorted order.
func (s *SignalSet) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.signals))
	for n := range s.signals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
