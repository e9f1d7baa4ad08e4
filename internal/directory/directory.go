package directory

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/checkpoint"
	"elga/internal/config"
	"elga/internal/events"
	"elga/internal/metrics"
	"elga/internal/profile"
	"elga/internal/sketch"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// Options configures a Directory.
type Options struct {
	// Config is the shared cluster configuration.
	Config config.Config
	// Network is the transport to listen and dial on.
	Network transport.Network
	// MasterAddr is the DirectoryMaster's address.
	MasterAddr string
	// Addr is the listen address ("" auto-allocates).
	Addr string
	// MetricHandler, if set, receives autoscaler metric samples on the
	// directory's event loop (coordinator only).
	MetricHandler func(*wire.Metric)
	// SpanSink, if set, receives shipped trace-span batches on the
	// directory's event loop (coordinator only) — the collector hookup.
	SpanSink func(proc string, spans []trace.SpanRecord)
	// Metrics, when non-nil, registers this directory's counters, view
	// gauges, and superstep histogram for the /metrics endpoint.
	Metrics *metrics.Registry
	// Trace configures distributed tracing (zero: off).
	Trace trace.Config
	// Checkpoint configures durable coordinator checkpointing (zero:
	// off; an empty Key means "coordinator"). A restarted coordinator
	// recovers the published view, identity counters, and the cluster's
	// consistent-cut table.
	Checkpoint checkpoint.Config
	// Events configures the structured event journal and the
	// coordinator's merged cluster timeline (zero: off).
	Events events.Config
	// Profile configures the cluster profiling plane (coordinator-side
	// artifact store and straggler auto-capture policy; zero: an
	// in-memory store and no auto-capture).
	Profile profile.Config
}

// Validate reports option errors before any resource is allocated.
func (o *Options) Validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Network == nil {
		return fmt.Errorf("directory: options: nil network")
	}
	if o.MasterAddr == "" {
		return fmt.Errorf("directory: options: empty master address")
	}
	return nil
}

// Directory is one directory server. The first Directory registered with
// the master becomes the coordinator and owns the canonical cluster
// state; later ones relay coordinator broadcasts to their subscribers.
type Directory struct {
	opts        Options
	ep          transport.Endpoint
	pub         *transport.Publisher
	coordinator bool
	coordAddr   string
	done        chan struct{}

	// Coordinator state; touched only by the event loop.
	epoch       uint64
	batchID     uint64
	nextAgentID uint64
	nextRunID   uint32
	agents      map[uint64]string
	// leases maps each agent to its last heartbeat (or join) time; an
	// agent silent past Config.LeaseExpiry is evicted.
	leases map[uint64]time.Time
	// sk is the exact merge of every sketch delta received; routed routes
	// every vertex as the routers' sketch does: it is the sketch last
	// broadcast, or a later sk that moved no replica bucket against it.
	// skDirty records that a merge since routed was taken moved some cell
	// across a bucket. It is a filter: a later merge can move the cell back
	// (the threshold grows with the total), so a seal that finds it set
	// judges sk against routed and publishes only if a bucket really moved
	// — the only sketch change that can alter a route (DESIGN.md, "What
	// opens an epoch"). skBytes caches sk's encoding between merges (empty
	// = stale).
	sk      *sketch.Sketch
	routed  *sketch.Sketch
	skDirty bool
	skBytes []byte
	n       uint64
	// lastView is an owned buffer (never aliases a pooled frame): the
	// coordinator re-encodes into it, relays copy into it.
	lastView []byte
	// scratch is the reusable broadcast payload buffer; Publish copies it
	// into per-subscriber frames before returning.
	scratch []byte

	pendingJoins  []*wire.Packet
	pendingLeaves []*wire.Packet
	pendingRuns   []*wire.Packet
	pendingSeals  []*wire.Packet
	sealDone      []*wire.Packet // seals awaiting post-seal migration

	migration *migrationState
	seal      *sealState
	run       *runState

	// Atomic mirrors of event-loop state, read by metric scrapes off the
	// event loop: statEvictions counts failure-detector evictions,
	// statAgents/statEpoch follow the published view, and
	// statMetricSamples counts metric samples folded into the handler.
	statEvictions     atomic.Uint64
	statAgents        atomic.Int64
	statEpoch         atomic.Uint64
	statMetricSamples atomic.Uint64
	// stepHist is the optional cluster-level superstep duration histogram
	// (nil without a registry).
	stepHist *metrics.Histogram
	// statSpanBatches counts span batches folded into the span sink.
	statSpanBatches atomic.Uint64
	// tracer mints the coordinator's run and step spans — the roots every
	// agent span links under. Nil when tracing is off.
	tracer *trace.Tracer

	// Health plane (coordinator only). journal records the coordinator's
	// own control-plane decisions (nil when events are off); timeline is
	// the merged cluster history that rides the coordinator checkpoint;
	// health scores agents from fused metric EMAs, span aggregates, and
	// event counts. evDropped tracks each participant's last reported
	// journal drop counter.
	journal   *events.Journal
	timeline  *events.Timeline
	health    *healthModel
	evDropped map[string]uint64
	// statEventBatches counts event batches merged into the
	// timeline; statHealthEvals counts health evaluations; healthCounts
	// mirrors the latest per-status agent tally for metric gauges.
	statEventBatches atomic.Uint64
	statHealthEvals  atomic.Uint64
	healthCounts     [4]atomic.Int64

	// ckpt is the coordinator's durability state (checkpoint.go); a nil
	// writer means off.
	ckpt dirCkpt

	// prof is the profiling plane (profile.go): capture fan-out, chunk
	// reassembly, the content-addressed artifact store, and the
	// auto-capture policy. The stat counters mirror its activity for
	// metric scrapes off the event loop.
	prof              dirProf
	statProfRequested atomic.Uint64
	statProfCompleted atomic.Uint64
	statProfFailed    atomic.Uint64
}

type migrationState struct {
	epochLow uint32
	expected map[uint64]bool
	votes    map[uint64]bool
	// leavers are the addresses of the agents leaving gracefully in this
	// round: their peers retire once it closes and they may exit.
	leavers []string
}

type sealState struct {
	votes   map[uint64]bool
	masters uint64
}

type runState struct {
	req        *wire.Packet
	spec       *wire.AlgoStart
	quiesce    bool
	step       uint32
	phase      uint8
	paused     bool
	votes      map[uint64]bool
	activeSum  uint64
	residual   float64
	splitAny   bool
	mastersSum uint64
	start      time.Time
	stepStart  time.Time
	stepTimes  []time.Duration
	// runSpan roots the run's trace; stepSpan covers one superstep
	// (compute + combine) and parents the Advance broadcasts, so agent
	// phase spans link under the step they belong to.
	runSpan  trace.ActiveSpan
	stepSpan trace.ActiveSpan

	// Asynchronous-mode quiescence probing.
	probeSeq     uint32
	probeSent    uint64
	probeRecv    uint64
	prevSent     uint64
	prevRecv     uint64
	prevValid    bool
	probePending bool
	// lossy records that an agent was evicted mid-run: its unreceived
	// messages make the sent/received sums permanently unbalanced, so
	// quiescence falls back to two consecutive unchanged probes.
	lossy bool
}

// asyncProbeInterval paces quiescence probes.
const asyncProbeInterval = 2 * time.Millisecond

// Start launches a Directory: it registers with the master (becoming the
// coordinator if it is first), subscribes to the coordinator if it is a
// relay, and begins its event loop.
func Start(opts Options) (*Directory, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	node, err := transport.NewNode(opts.Network, opts.Addr, 0)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Directory, error) {
		node.Close()
		return nil, err
	}
	// Registration is idempotent (the master dedups by address), so it is
	// safe to retry through transient faults.
	reply, err := node.RequestRetry(opts.MasterAddr, transport.Retry{Attempts: 5},
		opts.Config.RequestTimeout, func() []byte {
			return wire.AppendJoin(node.NewFrame(wire.TRegisterDirectory), &wire.Join{Addr: node.Addr()})
		})
	if err != nil {
		return fail(fmt.Errorf("directory: register with master: %w", err))
	}
	dirs, err := wire.DecodeStringList(reply.Payload)
	wire.ReleasePacket(reply)
	if err != nil || len(dirs) == 0 {
		return fail(fmt.Errorf("directory: bad master reply: %v", err))
	}
	d, err := newDirectory(opts, node, dirs[0])
	if err != nil {
		return fail(err)
	}
	if !d.coordinator {
		// Relays subscribe to every coordinator broadcast and fan it
		// out to their own subscribers.
		if _, err := node.SendFrameAcked(d.coordAddr, node.NewFrame(wire.TSubscribe)); err != nil {
			return fail(err)
		}
	}
	// After newDirectory: the health and profile metric families are gated
	// on state only the coordinator arms there.
	node.RegisterMetrics(opts.Metrics, "dir")
	d.initMetrics(opts.Metrics)
	go d.runLoop(node.Inbox())
	return d, nil
}

// newDirectory assembles a directory over ep whose coordinator is at
// coordAddr. The coordinator (coordAddr is ep's own) restores its
// checkpoint, arms its health, journal and profile planes and its lease
// sweep.
func newDirectory(opts Options, ep transport.Endpoint, coordAddr string) (*Directory, error) {
	d := &Directory{
		opts:        opts,
		ep:          ep,
		pub:         transport.NewPublisher(ep),
		coordAddr:   coordAddr,
		coordinator: coordAddr == ep.Addr(),
		done:        make(chan struct{}),
		agents:      make(map[uint64]string),
		leases:      make(map[uint64]time.Time),
		sk:          opts.Config.NewSketch(),
		routed:      opts.Config.NewSketch(),
		tracer:      trace.NewTracer("dir", opts.Trace),
	}
	if !d.coordinator {
		return d, nil
	}
	d.tracer.SetProc("coordinator")
	// The health model always runs at the coordinator (it only costs a few
	// EMAs per agent); the journal and timeline arm with the events config.
	// The half-life is the paper's §4.9 averaging window.
	d.health = newHealthModel(30 * time.Second)
	if opts.Events.Enabled {
		d.journal = events.NewJournal("coordinator", opts.Events)
		d.timeline = events.NewTimeline()
		d.evDropped = make(map[string]uint64)
	}
	if err := d.initProfile(); err != nil {
		return nil, err
	}
	// Restore before the first view encode: a recovered coordinator
	// publishes the membership it last sequenced, so restarting agents
	// rejoin under their old identities.
	if err := d.initCheckpoint(); err != nil {
		return nil, err
	}
	d.lastView = wire.EncodeView(d.view())
	d.ep.After(d.opts.Config.LeaseExpiry()/4, leaseTickPayload)
	return d, nil
}

// initMetrics registers the directory's metric families on reg. The
// superstep histogram is shared (one per registry); view gauges read the
// atomic mirrors broadcastView maintains.
func (d *Directory) initMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	lbl := metrics.Labels{"addr": d.ep.Addr()}
	reg.CounterFunc("elga_dir_evictions_total", "Agents evicted by the failure detector.", lbl,
		d.statEvictions.Load)
	reg.CounterFunc("elga_dir_metric_samples_total", "Metric samples folded into the metric handler.", lbl,
		d.statMetricSamples.Load)
	reg.GaugeFunc("elga_dir_agents", "Agents in the published view.", lbl,
		func() float64 { return float64(d.statAgents.Load()) })
	reg.GaugeFunc("elga_dir_epoch", "Current view epoch.", lbl,
		func() float64 { return float64(d.statEpoch.Load()) })
	reg.CounterFunc("elga_dir_span_batches_total", "Span batches folded into the span sink.", lbl,
		d.statSpanBatches.Load)
	reg.CounterFunc("elga_trace_dropped_spans_total", "Sampled trace spans dropped before shipping (backpressure).", lbl,
		func() uint64 { return d.tracer.Dropped() })
	d.stepHist = reg.Histogram("elga_dir_superstep_seconds",
		"Whole-superstep wall time observed at the coordinator barrier.",
		nil, metrics.DurationBuckets)
	if d.health != nil {
		// Health gauges read the atomic mirrors evaluateHealth refreshes on
		// the lease-sweep cadence; the event counters are live.
		for st := wire.HealthHealthy; st <= wire.HealthSuspect; st++ {
			st := st
			reg.GaugeFunc("elga_health_agents",
				"Agents per scored health status at the last evaluation.",
				metrics.Labels{"addr": d.ep.Addr(), "status": wire.HealthName(st)},
				func() float64 { return float64(d.healthCounts[st].Load()) })
		}
		reg.CounterFunc("elga_health_evaluations_total", "Health-model evaluation passes.", lbl,
			d.statHealthEvals.Load)
		reg.CounterFunc("elga_health_event_batches_total", "Event batches merged into the timeline.", lbl,
			d.statEventBatches.Load)
		reg.CounterFunc("elga_health_events_total", "Events ever merged into the cluster timeline.", lbl,
			func() uint64 { return d.timeline.Seq() })
	}
	if d.coordinator {
		reg.CounterFunc("elga_profile_captures_requested_total", "Profile capture requests fanned out to agents.", lbl,
			d.statProfRequested.Load)
		reg.CounterFunc("elga_profile_captures_completed_total", "Profile artifacts committed to the store.", lbl,
			d.statProfCompleted.Load)
		reg.CounterFunc("elga_profile_captures_failed_total", "Profile captures that errored or expired before completing.", lbl,
			d.statProfFailed.Load)
		reg.GaugeFunc("elga_profile_artifacts", "Profile artifacts in the coordinator store.", lbl,
			func() float64 { return float64(d.prof.store.Len()) })
	}
	metrics.RegisterRuntime(reg)
}

// Addr returns the directory's dialable address.
func (d *Directory) Addr() string { return d.ep.Addr() }

// IsCoordinator reports whether this directory sequences cluster state.
func (d *Directory) IsCoordinator() bool { return d.coordinator }

// CoordinatorAddr returns the coordinator directory's address.
func (d *Directory) CoordinatorAddr() string { return d.coordAddr }

// TransportStats returns the directory node's transport counters.
func (d *Directory) TransportStats() transport.Stats { return d.ep.Stats() }

// Close shuts the directory down.
func (d *Directory) Close() error {
	d.ep.Close()
	<-d.done
	return nil
}

func (d *Directory) view() *wire.View {
	ids := make([]uint64, 0, len(d.agents))
	for id := range d.agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	infos := make([]wire.AgentInfo, 0, len(ids))
	for _, id := range ids {
		infos = append(infos, wire.AgentInfo{ID: id, Addr: d.agents[id]})
	}
	if len(d.skBytes) == 0 {
		d.skBytes = d.sk.AppendBinary(d.skBytes)
	}
	return &wire.View{Epoch: d.epoch, BatchID: d.batchID, N: d.n, Agents: infos, Sketch: d.skBytes}
}

func (d *Directory) broadcastView() {
	// Every epoch bump funnels through here, so the scrape-visible view
	// mirrors stay exact without touching any other call site.
	d.statAgents.Store(int64(len(d.agents)))
	d.statEpoch.Store(d.epoch)
	d.lastView = wire.AppendView(d.lastView[:0], d.view())
	d.pub.Publish(wire.TDirUpdate, d.lastView)
	_, _ = d.routed.LoadEncoded(d.skBytes, nil, 0) // view() encoded sk
	d.skDirty = false
	// Every epoch bump is a coordinator-state change at a coherent
	// moment; snapshot it (no-op while durability is off).
	d.checkpointCoord()
}

// publishAdvance broadcasts an Advance through the reusable scratch payload
// (Publish copies it per subscriber before returning), carrying a trace
// context on the frame header so agent phase spans link under the
// coordinator's step span. A zero ctx degrades to the plain header.
func (d *Directory) publishAdvance(a *wire.Advance, ctx trace.SpanContext) {
	d.scratch = wire.AppendAdvance(d.scratch[:0], a)
	d.pub.PublishCtx(wire.TAdvance, d.scratch, ctx)
}

// shipSpans hands the directory's own completed spans straight to the
// span sink (coordinator-local: no wire hop needed).
func (d *Directory) shipSpans() {
	if d.opts.SpanSink == nil {
		return
	}
	if batch := d.tracer.TakeBatch(); len(batch) > 0 {
		d.opts.SpanSink(d.tracer.Proc(), batch)
	}
}

// event journals one coordinator decision and merges it into the
// cluster timeline immediately — the coordinator's events never cross
// the wire. A single branch when events are off.
func (d *Directory) event(level events.Level, kind string, ctx trace.SpanContext, fields ...events.Field) {
	if d.journal == nil {
		return
	}
	d.journal.Emit(level, kind, ctx, fields...)
	d.mergeEvents(d.journal.TakeBatch())
}

// mergeEvents folds shipped (or local) event records into the timeline
// and attributes them to agents for the health model's event counts.
func (d *Directory) mergeEvents(recs []events.Record) {
	if d.timeline == nil || len(recs) == 0 {
		return
	}
	d.timeline.Append(recs...)
	if d.health != nil {
		for i := range recs {
			d.health.countEvent(&recs[i])
		}
	}
}

// agentGone runs the departure hooks for one agent (leave or eviction):
// its health vitals are pruned so nothing ever scores a corpse's stale
// signals.
func (d *Directory) agentGone(id uint64) {
	if d.health != nil {
		d.health.forget(id)
	}
	d.profileAgentGone(id)
}

// evaluateHealth re-scores every agent, refreshes the metric-gauge
// mirrors, and journals status transitions. Runs on the lease-sweep
// cadence and on demand for TStatus.
func (d *Directory) evaluateHealth(now time.Time) []wire.AgentHealth {
	if d.health == nil {
		return nil
	}
	prev := make(map[uint64]uint8, len(d.health.agents))
	for id, v := range d.health.agents {
		prev[id] = v.status
	}
	roll := d.health.evaluate(now, d.agents, d.leases, d.opts.Config.LeaseExpiry())
	d.statHealthEvals.Add(1)
	var counts [4]int64
	for i := range roll {
		a := &roll[i]
		if int(a.Status) < len(counts) {
			counts[a.Status]++
		}
		if prev[a.AgentID] != a.Status {
			lvl := events.Info
			if a.Status != wire.HealthHealthy {
				lvl = events.Warn
			}
			d.event(lvl, events.KindHealth, trace.SpanContext{},
				events.U("agent", a.AgentID),
				events.S("status", wire.HealthName(a.Status)),
				events.S("cause", a.Cause))
			// A fresh straggler/suspect verdict is the auto-capture
			// trigger: the profile request goes out before the next
			// evaluation can re-confirm (the cooldown dedups repeats).
			d.maybeAutoProfile(now, a)
		}
	}
	for i := range counts {
		d.healthCounts[i].Store(counts[i])
	}
	return roll
}

// replyStatus answers a TStatus request with the health rollup and the
// newest slice of the event timeline.
func (d *Directory) replyStatus(pkt *wire.Packet) {
	maxEvents, _ := wire.DecodeStatusReq(pkt.Payload)
	if maxEvents == 0 {
		maxEvents = 64
	}
	s := &wire.StatusReply{
		Epoch:    d.epoch,
		BatchID:  d.batchID,
		Vertices: d.n,
		EventSeq: d.timeline.Seq(),
		Agents:   d.evaluateHealth(d.ep.Now()),
		Timeline: d.timeline.Recent(int(maxEvents)),
	}
	if r := d.run; r != nil {
		s.Running = true
		s.RunID = r.spec.RunID
		s.Step = r.step
	}
	var dropped uint64
	for _, n := range d.evDropped {
		dropped += n
	}
	s.EventsDropped = dropped + d.journal.Dropped()
	_ = d.ep.ReplyFrame(pkt, wire.AppendStatusReply(
		d.ep.NewFrameHint(wire.TStatusReply, 64+96*len(s.Agents)+64*len(s.Timeline)), s))
}

// publishAlgoStart broadcasts a run announcement through scratch.
func (d *Directory) publishAlgoStart(s *wire.AlgoStart) {
	d.scratch = wire.AppendAlgoStart(d.scratch[:0], s)
	d.pub.Publish(wire.TAlgoStart, d.scratch)
}

func (d *Directory) runLoop(inbox <-chan *wire.Packet) {
	defer close(d.done)
	for pkt := range inbox {
		if !d.Handle(pkt) {
			wire.ReleasePacket(pkt)
		}
	}
	// Drain the checkpoint writer so the last snapshot is durable.
	d.closeCheckpoint()
}

// Handle processes one packet — the one entry point of the event loop —
// reporting whether it retained ownership (the coordinator parks join,
// leave, run and seal requests until they are answered).
func (d *Directory) Handle(pkt *wire.Packet) (retained bool) {
	switch pkt.Type {
	case wire.TSubscribe:
		d.pub.Subscribe(pkt.From, wire.DecodeSubscribeTypes(pkt.Payload)...)
		if d.lastView != nil {
			// Acked: this catch-up is the subscriber's only copy of any
			// view published before its subscription landed — losing it
			// can wedge a migration barrier waiting on that subscriber.
			d.sendView(pkt.From)
		}
		d.ep.Ack(pkt)
	case wire.TUnsubscribe:
		// A departing participant; a member agent still gets its peer for
		// the barrier until it leaves or is evicted.
		if !d.isMember(pkt.From) {
			d.retirePeer(pkt.From)
		} else {
			d.pub.Unsubscribe(pkt.From)
		}
	case wire.TPing:
		_ = d.ep.ReplyFrame(pkt, d.ep.NewFrame(wire.TPong))
	case wire.TDirectoryList:
		// Peer list refresh from the master: directories fan out on their
		// own, and the coordinator cannot change.
	default:
		if d.coordinator {
			return d.handleCoordinator(pkt)
		}
		d.handleRelay(pkt)
	}
	return false
}

// sendView sends addr the last published view, acked.
func (d *Directory) sendView(addr string) {
	_, _ = d.ep.SendFrameAcked(addr, append(d.ep.NewFrameHint(wire.TDirUpdate, len(d.lastView)), d.lastView...))
}

// handleRelay processes one packet at a relay: coordinator broadcasts fan
// out to the relay's subscribers.
func (d *Directory) handleRelay(pkt *wire.Packet) {
	switch pkt.Type {
	case wire.TDirUpdate:
		// Copy into the owned buffer so the pooled packet can be
		// released while lastView survives for late subscribers.
		d.lastView = append(d.lastView[:0], pkt.Payload...)
		d.pub.Publish(pkt.Type, d.lastView)
		d.ep.Ack(pkt)
	case wire.TAdvance, wire.TAlgoStart, wire.TAlgoDone, wire.TBatchOpen:
		d.pub.Publish(pkt.Type, pkt.Payload)
		d.ep.Ack(pkt)
	default:
		// Control packets sent to a relay by mistake are forwarded to
		// the coordinator so stale participants still make progress.
		// Reliable (acked) traffic stays reliable across the hop: the
		// relay acks the sender and takes over retransmission.
		frame := append(d.ep.NewFrameHint(pkt.Type, len(pkt.Payload)), pkt.Payload...)
		if wire.AckedPush(pkt.Type) {
			_, _ = d.ep.SendFrameAcked(d.coordAddr, frame)
			d.ep.Ack(pkt)
		} else {
			_ = d.ep.SendFrame(d.coordAddr, frame)
		}
	}
}

// handleCoordinator processes one packet, reporting whether it retained
// ownership (join/leave/run/seal requests are parked in pending queues and
// released when answered).
func (d *Directory) handleCoordinator(pkt *wire.Packet) bool {
	switch pkt.Type {
	case wire.TJoin:
		d.pendingJoins = append(d.pendingJoins, pkt)
		d.advanceWork()
		return true
	case wire.TLeave:
		// Ack at receipt: the departure is now durable coordinator state
		// (the packet is parked until membership applies), so the agent's
		// retransmission can stop.
		d.ep.Ack(pkt)
		d.pendingLeaves = append(d.pendingLeaves, pkt)
		d.advanceWork()
		return true
	case wire.THeartbeat:
		d.handleHeartbeat(pkt)
	case wire.TSketchDelta:
		// A malformed delta merges nothing; ack it to stop retransmission.
		if crossed, err := d.sk.MergeDelta(pkt.Payload, d.threshold, d.opts.Config.MaxReplicas); err == nil {
			d.skBytes = d.skBytes[:0]
			d.skDirty = d.skDirty || crossed
		}
		d.ep.Ack(pkt)
	case wire.TReady:
		m, err := wire.DecodeReady(pkt.Payload)
		if err != nil {
			d.ep.Ack(pkt) // malformed: ack to stop the retransmission
			return false
		}
		d.handleReady(m)
		d.ep.Ack(pkt)
		// The phase time rides the vote, not a report.
		if m.PhaseSeconds > 0 && (m.Phase == wire.PhaseCompute || m.Phase == wire.PhaseCombine) {
			name := autoscale.MetricStepTime
			if m.Phase == wire.PhaseCombine {
				name = autoscale.MetricCombineTime
			}
			d.observeMetric(&wire.Metric{AgentID: m.AgentID, Name: name, Value: m.PhaseSeconds})
		}
	case wire.TRunAlgo:
		d.pendingRuns = append(d.pendingRuns, pkt)
		d.advanceWork()
		return true
	case wire.TIngest:
		d.pendingSeals = append(d.pendingSeals, pkt)
		d.advanceWork()
		return true
	case wire.TReport:
		d.handleReport(pkt)
	case wire.TStatus:
		d.replyStatus(pkt)
	case wire.TProfile:
		d.handleProfileRequest(pkt)
	case wire.TTick:
		// Self-ticks (Node.After) multiplex two timers, distinguished by a
		// 1-byte tag: empty = async quiescence probe, 1 = lease sweep.
		if len(pkt.Payload) > 0 && pkt.Payload[0] == leaseTick {
			now := d.ep.Now()
			d.sweepLeases(now)
			d.shipSpans() // periodic flush of the coordinator's own spans
			if d.health != nil {
				d.evaluateHealth(now)
			}
			d.sweepProfiles(now)
			d.ep.After(d.opts.Config.LeaseExpiry()/4, leaseTickPayload)
		} else {
			d.sendAsyncProbe()
		}
	}
	return false
}

// busy reports whether a blocking activity owns the cluster.
func (d *Directory) busy() bool {
	if d.migration != nil || d.seal != nil {
		return true
	}
	return d.run != nil && !d.run.paused
}

// advanceWork runs queued activities when the cluster reaches a safe
// point: membership first (it changes the barrier population), then
// seals, then algorithm runs.
func (d *Directory) advanceWork() {
	if d.busy() {
		return
	}
	if len(d.pendingJoins) > 0 || len(d.pendingLeaves) > 0 {
		d.applyMembership()
		return
	}
	if d.run != nil && d.run.paused {
		d.resumeRun()
		return
	}
	if len(d.pendingSeals) > 0 || len(d.pendingRuns) > 0 {
		d.startSeal()
	}
}

func (d *Directory) applyMembership() {
	var leavers []uint64
	for _, pkt := range d.pendingJoins {
		j, err := wire.DecodeJoin(pkt.Payload)
		if err != nil {
			wire.ReleasePacket(pkt)
			continue
		}
		// A restore-carrying join seeds the cut table: the agent already
		// recovered to this snapshot, so the coordinator knows it without
		// waiting for the first lossy mark.
		if j.Restore != nil {
			d.recordMark(&wire.CheckpointMark{Meta: *j.Restore})
		}
		// Joins are idempotent by address so a client-side Retry (whose
		// earlier attempt may have been applied but its reply lost) does
		// not mint a second identity for the same agent.
		var id uint64
		for eid, addr := range d.agents {
			if addr == j.Addr {
				id = eid
				break
			}
		}
		if id == 0 {
			d.nextAgentID++
			id = d.nextAgentID
			d.agents[id] = j.Addr
			d.leases[id] = d.ep.Now()
			restored := uint64(0)
			if j.Restore != nil {
				restored = 1
			}
			d.event(events.Info, events.KindJoin, trace.SpanContext{},
				events.U("agent", id), events.S("addr", j.Addr), events.U("restored", restored))
		}
		// Joining implies subscribing: an eviction unsubscribes the
		// address, so a falsely-suspected agent that rejoins (under a
		// fresh ID) would otherwise be deaf to every later broadcast —
		// it could never vote a barrier again.
		d.pub.Subscribe(j.Addr)
		// Reply after the view is final so the new agent sees itself.
		defer func(p *wire.Packet, assigned uint64) {
			_ = d.ep.ReplyFrame(p, wire.AppendJoinReply(
				d.ep.NewFrame(wire.TJoinReply), &wire.JoinReply{
					AgentID: assigned,
					View:    d.view(),
				}))
			wire.ReleasePacket(p)
		}(pkt, id)
	}
	var leaverAddrs []string
	for _, pkt := range d.pendingLeaves {
		l, err := wire.DecodeLeave(pkt.Payload)
		if err == nil {
			if addr, ok := d.agents[l.AgentID]; ok {
				leaverAddrs = append(leaverAddrs, addr)
				delete(d.agents, l.AgentID)
				delete(d.leases, l.AgentID)
				leavers = append(leavers, l.AgentID)
				d.event(events.Info, events.KindLeave, trace.SpanContext{},
					events.U("agent", l.AgentID))
				d.agentGone(l.AgentID)
			}
		}
		wire.ReleasePacket(pkt)
	}
	d.pendingJoins = nil
	d.pendingLeaves = nil
	d.openMigration(leavers, leaverAddrs)
	d.maybeFinishMigration()
}

// openMigration bumps the epoch, publishes the view and opens a migration
// round under it. Every member votes in it, and so do the agents leaving
// (they migrate their edges away); leaverAddrs retire when it closes.
func (d *Directory) openMigration(leaving []uint64, leaverAddrs []string) {
	d.epoch++
	d.broadcastView()
	expected := make(map[uint64]bool, len(d.agents)+len(leaving))
	for id := range d.agents {
		expected[id] = true
	}
	for _, id := range leaving {
		expected[id] = true
	}
	d.migration = &migrationState{
		epochLow: uint32(d.epoch),
		expected: expected,
		votes:    make(map[uint64]bool),
		leavers:  leaverAddrs,
	}
	d.event(events.Info, events.KindMigrationStart, trace.SpanContext{},
		events.U("epoch", d.epoch), events.U("expected", uint64(len(expected))))
}

func (d *Directory) maybeFinishMigration() {
	m := d.migration
	if m == nil || len(m.votes) < len(m.expected) {
		return
	}
	d.event(events.Info, events.KindMigrationDone, trace.SpanContext{},
		events.U("epoch", uint64(m.epochLow)))
	d.migration = nil
	// Migration-complete broadcast: leavers may now disconnect, agents
	// may resume.
	d.publishAdvance(&wire.Advance{
		Step: m.epochLow, Phase: wire.PhaseMigrate, Halt: true, N: d.n,
	}, trace.SpanContext{})
	// The Advance is the last frame a leaver waits for; it carries the ack
	// of the leaver's vote, and the peer's writer still sends it.
	for _, addr := range m.leavers {
		if !d.isMember(addr) { // not back under a new identity
			d.retirePeer(addr)
		}
	}
	for _, pkt := range d.sealDone {
		_ = d.ep.ReplyFrame(pkt, d.ep.NewFrame(wire.TPong))
		wire.ReleasePacket(pkt)
	}
	d.sealDone = nil
	d.advanceWork()
}

func (d *Directory) startSeal() {
	d.batchID++
	d.event(events.Info, events.KindSeal, trace.SpanContext{},
		events.U("batch", d.batchID), events.U("agents", uint64(len(d.agents))))
	d.seal = &sealState{votes: make(map[uint64]bool)}
	d.scratch = binary.LittleEndian.AppendUint64(d.scratch[:0], d.batchID)
	d.pub.Publish(wire.TBatchOpen, d.scratch)
	d.maybeFinishSeal()
}

func (d *Directory) maybeFinishSeal() {
	s := d.seal
	if s == nil || len(s.votes) < len(d.agents) {
		return
	}
	d.seal = nil
	if len(d.agents) > 0 {
		d.n = s.masters
	}
	if d.skDirty && d.bucketsMoved() {
		// The merged deltas moved a cell across a replica bucket, so some
		// vertex's replica count may have changed: rebroadcast and run a
		// migration round before starting work (§3.4.3).
		d.openMigration(nil, nil)
		// Defer the ingest replies until the migration round finishes.
		d.sealDone = append(d.sealDone, d.pendingSeals...)
		d.pendingSeals = nil
		d.maybeFinishMigration()
		return
	}
	for _, pkt := range d.pendingSeals {
		_ = d.ep.ReplyFrame(pkt, d.ep.NewFrame(wire.TPong))
		wire.ReleasePacket(pkt)
	}
	d.pendingSeals = nil
	// No replica bucket crossed: every router still computes the routes
	// the exact merge would, so there is no broadcast. Persist the merged
	// sketch and the new batch watermark here instead.
	d.checkpointCoord()
	d.maybeStartRun()
}

// bucketsMoved judges sk against routed cell by cell, each under the
// threshold at its own total, and clears skDirty. When no bucket moved, sk
// becomes routed: it routes every vertex as the routers' sketch does, so
// the next seal may be judged against it instead.
func (d *Directory) bucketsMoved() bool {
	d.skDirty = false
	if len(d.skBytes) == 0 {
		d.skBytes = d.sk.AppendBinary(d.skBytes)
	}
	moved, _ := d.routed.LoadEncoded(d.skBytes, d.threshold, d.opts.Config.MaxReplicas)
	return moved
}

// threshold is the replication threshold at a sketch total under the
// current membership, the one the next view carries.
func (d *Directory) threshold(total uint64) uint64 {
	return d.opts.Config.Threshold(total, len(d.agents))
}

// replyRunStats answers a TRunAlgo request and releases it. A valid ctx
// rides the reply frame so the client can link its own span into the
// run's coordinator-rooted trace.
func (d *Directory) replyRunStats(pkt *wire.Packet, s *wire.RunStats, ctx trace.SpanContext) {
	_ = d.ep.ReplyFrame(pkt, wire.AppendRunStats(transport.NewFrameCtx(d.ep, wire.TRunReply, 0, ctx), s))
	wire.ReleasePacket(pkt)
}

func (d *Directory) maybeStartRun() {
	if d.busy() || d.run != nil || len(d.pendingRuns) == 0 {
		return
	}
	pkt := d.pendingRuns[0]
	d.pendingRuns = d.pendingRuns[1:]
	spec, err := wire.DecodeAlgoStart(pkt.Payload)
	if err != nil {
		d.replyRunStats(pkt, &wire.RunStats{}, trace.SpanContext{})
		return
	}
	prog, err := algorithm.New(spec.Algo)
	if err != nil {
		d.replyRunStats(pkt, &wire.RunStats{}, trace.SpanContext{})
		return
	}
	d.nextRunID++
	spec.RunID = d.nextRunID
	if spec.MaxSteps == 0 {
		if prog.HaltOnQuiescence() {
			spec.MaxSteps = 1 << 30
		} else {
			spec.MaxSteps = 20
		}
	}
	if (spec.Async || !spec.FromScratch) && !prog.HaltOnQuiescence() {
		// Asynchronous and incremental execution both require a monotone
		// quiescence-halting program (WCC/BFS/SSSP): only for those does
		// announcing the changed edges reach the from-scratch answer.
		// Reject others (PageRank, PPR).
		d.replyRunStats(pkt, &wire.RunStats{}, trace.SpanContext{})
		return
	}
	now := d.ep.Now()
	d.run = &runState{
		req: pkt, spec: spec, quiesce: prog.HaltOnQuiescence(),
		votes: make(map[uint64]bool), start: now, stepStart: now,
	}
	// Root the run's trace here: the coordinator owns the trace ID, and
	// every Advance carries a step-span context for agents to link under.
	d.run.runSpan = d.tracer.StartRoot("run", spec.RunID)
	d.event(events.Info, events.KindRunStart, d.run.runSpan.Context(),
		events.U("run", uint64(spec.RunID)), events.S("algo", spec.Algo),
		events.U("agents", uint64(len(d.agents))))
	d.publishAlgoStart(spec)
	if spec.Async {
		// No superstep driving: agents compute as messages arrive; the
		// coordinator probes for quiescence until the counters settle.
		d.ep.After(asyncProbeInterval, nil)
		if len(d.agents) == 0 {
			d.finishRun(true)
		}
		return
	}
	d.run.phase = wire.PhaseCompute
	d.run.stepSpan = d.tracer.StartChild("step", d.run.runSpan.WithStep(0))
	d.publishAdvance(&wire.Advance{
		Step: 0, Phase: wire.PhaseCompute, N: d.n, RunID: spec.RunID,
	}, d.run.stepSpan.Context())
	if len(d.agents) == 0 {
		d.finishRun(false)
	}
}

// leaseTick tags a TTick self-send as a lease sweep (vs. async probe).
const leaseTick = 1

var leaseTickPayload = []byte{leaseTick}

// handleHeartbeat renews the sender's lease. A heartbeat from an unknown
// agent means the sender was already evicted but is still alive (a false
// suspicion); pushing it the latest view makes it observe its own absence
// and migrate its data back to the members through the ordinary leave
// path.
func (d *Directory) handleHeartbeat(pkt *wire.Packet) {
	h, err := wire.DecodeHeartbeat(pkt.Payload)
	if err != nil {
		return
	}
	if _, ok := d.agents[h.AgentID]; ok {
		d.leases[h.AgentID] = d.ep.Now()
		return
	}
	if d.lastView != nil && pkt.From != "" {
		// Acked: an evicted zombie only learns it is gone from this push.
		d.sendView(pkt.From)
	}
}

// sweepLeases evicts every agent whose lease expired.
func (d *Directory) sweepLeases(now time.Time) {
	timeout := d.opts.Config.LeaseExpiry()
	var dead []uint64
	for id := range d.agents {
		last, ok := d.leases[id]
		if !ok {
			d.leases[id] = now
			continue
		}
		if now.Sub(last) > timeout {
			dead = append(dead, id)
		}
	}
	if len(dead) > 0 {
		d.evictAgents(dead)
	}
}

// evictAgents removes silently-failed agents from the view, reusing the
// leave/scale-down path of §3.4.2: the epoch bumps, a new view publishes,
// and consistent hashing hands the dead agents' ranges to survivors, who
// re-own the affected copies in the migration round that follows. Unlike
// a graceful leave this can interrupt a running phase: open barriers are
// re-based on the surviving population (dead votes pruned, counts
// re-checked), and if a synchronous phase was in flight the run pauses at
// the barrier until the eviction migration completes, then resumes.
func (d *Directory) evictAgents(dead []uint64) {
	for _, id := range dead {
		addr := d.agents[id]
		delete(d.agents, id)
		delete(d.leases, id)
		d.retirePeer(addr)
		d.statEvictions.Add(1)
		d.event(events.Warn, events.KindEvict, trace.SpanContext{},
			events.U("agent", id), events.S("addr", addr))
		d.agentGone(id)
	}
	// Supersede any in-flight migration: survivors re-migrate under the
	// new epoch and re-vote; only live agents are expected. Its leavers
	// still retire when this round closes.
	var leavers []string
	if d.migration != nil {
		leavers = d.migration.leavers
	}
	d.openMigration(nil, leavers)
	if s := d.seal; s != nil {
		for _, id := range dead {
			delete(s.votes, id)
		}
	}
	if r := d.run; r != nil {
		for _, id := range dead {
			delete(r.votes, id)
		}
		r.lossy = true
		if r.spec.Async && r.probePending {
			// The aborted probe round summed the dead agents' counters;
			// restart probing against the survivors and drop counter
			// history.
			r.probePending = false
			r.prevValid = false
			d.ep.After(asyncProbeInterval, nil)
		}
	}
	if len(d.agents) == 0 && d.run != nil {
		d.finishRun(false)
	}
	d.maybeFinishMigration()
	d.maybeFinishSeal()
	d.maybeFinishRunBarrier()
}

// retirePeer stops publishing to addr and retires the node's peer for it,
// reclaiming the directory's own in-flight acked broadcasts so its writer
// and retransmission state go with it.
func (d *Directory) retirePeer(addr string) {
	d.pub.Unsubscribe(addr)
	for _, f := range d.ep.CancelPeer(addr) {
		wire.ReleaseFrame(f.Frame)
	}
}

// isMember reports whether addr is a member agent's address.
func (d *Directory) isMember(addr string) bool {
	for _, a := range d.agents {
		if a == addr {
			return true
		}
	}
	return false
}

// maybeFinishRunBarrier re-checks a synchronous phase barrier after the
// agent population shrank underneath it.
func (d *Directory) maybeFinishRunBarrier() {
	r := d.run
	if r == nil || r.paused || r.spec.Async || len(d.agents) == 0 {
		return
	}
	if r.phase != wire.PhaseCompute && r.phase != wire.PhaseCombine {
		return
	}
	if len(r.votes) >= len(d.agents) {
		d.finishPhase()
	}
}

// sendAsyncProbe broadcasts a quiescence probe to all agents.
func (d *Directory) sendAsyncProbe() {
	r := d.run
	if r == nil || !r.spec.Async || r.probePending {
		return
	}
	r.probeSeq++
	r.probePending = true
	clear(r.votes)
	r.probeSent, r.probeRecv = 0, 0
	d.publishAdvance(&wire.Advance{
		Step: r.probeSeq, Phase: wire.PhaseAsyncProbe, N: d.n, RunID: r.spec.RunID,
	}, trace.SpanContext{})
}

// handleAsyncProbeVote folds one agent's probe answer; when all agents
// report idle with balanced, unchanged counters across two consecutive
// probes, the system is quiescent and the run completes.
func (d *Directory) handleAsyncProbeVote(m *wire.Ready) {
	r := d.run
	if r == nil || !r.spec.Async || !r.probePending || m.Step != r.probeSeq {
		return
	}
	if _, ok := d.agents[m.AgentID]; !ok || r.votes[m.AgentID] {
		return
	}
	r.votes[m.AgentID] = true
	r.probeSent += m.Sent
	r.probeRecv += m.Received
	if len(r.votes) < len(d.agents) {
		return
	}
	r.probePending = false
	balanced := r.probeSent == r.probeRecv || r.lossy
	unchanged := r.prevValid && r.probeSent == r.prevSent && r.probeRecv == r.prevRecv
	r.prevSent, r.prevRecv, r.prevValid = r.probeSent, r.probeRecv, true
	if balanced && unchanged {
		stepDur := d.ep.Now().Sub(r.stepStart)
		r.stepTimes = append(r.stepTimes, stepDur)
		d.stepHist.Observe(stepDur.Seconds())
		d.finishRun(true)
		return
	}
	d.ep.After(asyncProbeInterval, nil)
}

// observeMetric folds one autoscaler sample into the coordinator's health
// model (which always runs) and the metric handler.
func (d *Directory) observeMetric(m *wire.Metric) {
	d.statMetricSamples.Add(1)
	d.health.observeMetric(d.ep.Now(), m)
	if d.opts.MetricHandler != nil {
		d.opts.MetricHandler(m)
	}
}

// handleReport walks a report into the planes its sections feed; a section
// that does not decode is dropped like a lost report.
func (d *Directory) handleReport(pkt *wire.Packet) {
	_ = wire.WalkReport(pkt.Payload, func(agentID uint64, kind uint8, body []byte) {
		switch kind {
		case wire.SecMetrics:
			ms, _ := wire.DecodeMetrics(agentID, body)
			for i := range ms {
				d.observeMetric(&ms[i])
			}
		case wire.SecSpans:
			if sb, err := wire.DecodeSpanBatch(body); err == nil {
				d.statSpanBatches.Add(1)
				d.health.observeSpans(d.ep.Now(), sb.Proc, sb.Spans)
				if d.opts.SpanSink != nil {
					d.opts.SpanSink(sb.Proc, sb.Spans)
				}
			}
		case wire.SecEvents:
			if evs, dropped, err := wire.DecodeEventBatch(body); err == nil && d.timeline != nil {
				d.statEventBatches.Add(1)
				if len(evs) > 0 {
					d.evDropped[evs[0].Proc] = dropped
				}
				d.mergeEvents(evs)
			}
		case wire.SecMark:
			if m, err := wire.DecodeCheckpointMark(body); err == nil {
				d.recordMark(m)
			}
		case wire.SecProfileChunk:
			d.handleProfileChunk(body)
		}
	})
}

func (d *Directory) handleReady(m *wire.Ready) {
	switch m.Phase {
	case wire.PhaseMigrate:
		if mg := d.migration; mg != nil && m.Step == mg.epochLow && mg.expected[m.AgentID] {
			mg.votes[m.AgentID] = true
			d.maybeFinishMigration()
		}
	case wire.PhaseBatch:
		if s := d.seal; s != nil {
			if _, ok := d.agents[m.AgentID]; ok && !s.votes[m.AgentID] {
				s.votes[m.AgentID] = true
				s.masters += m.Masters
				d.maybeFinishSeal()
			}
		}
	case wire.PhaseAsyncProbe:
		d.handleAsyncProbeVote(m)
	case wire.PhaseCompute, wire.PhaseCombine:
		r := d.run
		if r == nil || r.paused || m.Step != r.step || m.Phase != r.phase {
			return
		}
		if _, ok := d.agents[m.AgentID]; !ok || r.votes[m.AgentID] {
			return
		}
		r.votes[m.AgentID] = true
		r.activeSum += m.ActiveNext
		r.residual += m.Residual
		r.splitAny = r.splitAny || m.SplitWork
		r.mastersSum += m.Masters
		// >= tolerates the population shrinking under the barrier when an
		// eviction pruned votes between this vote and the last.
		if len(r.votes) >= len(d.agents) {
			d.finishPhase()
		}
	}
}

func (d *Directory) finishPhase() {
	r := d.run
	if r.phase == wire.PhaseCompute && r.splitAny {
		// Split vertices exist: run the combine phase before closing
		// the superstep.
		r.phase = wire.PhaseCombine
		clear(r.votes)
		r.splitAny = false
		r.mastersSum = 0 // recounted next compute phase
		d.publishAdvance(&wire.Advance{
			Step: r.step, Phase: wire.PhaseCombine, N: d.n, RunID: r.spec.RunID,
		}, r.stepSpan.Context())
		return
	}
	// Superstep complete.
	r.stepSpan.End()
	r.stepSpan = trace.ActiveSpan{}
	stepDur := d.ep.Now().Sub(r.stepStart)
	r.stepTimes = append(r.stepTimes, stepDur)
	d.stepHist.Observe(stepDur.Seconds())
	if r.mastersSum > 0 {
		d.n = r.mastersSum
	}
	halt := false
	converged := false
	if r.quiesce && r.activeSum == 0 {
		halt, converged = true, true
	}
	if !r.quiesce && r.spec.Epsilon > 0 && r.step > 0 && r.residual < r.spec.Epsilon {
		halt, converged = true, true
	}
	if r.step+1 >= r.spec.MaxSteps {
		halt = true
	}
	if halt {
		d.finishRun(converged)
		return
	}
	r.step++
	clear(r.votes)
	r.activeSum, r.residual, r.splitAny, r.mastersSum = 0, 0, false, 0
	r.phase = wire.PhaseCompute
	if d.migration != nil {
		// An eviction bumped the view mid-phase: hold the run at this
		// boundary until the survivors' migration round completes;
		// maybeFinishMigration → advanceWork resumes it.
		r.paused = true
		return
	}
	if len(d.pendingJoins) > 0 || len(d.pendingLeaves) > 0 {
		// Elastic event mid-run: pause at the superstep boundary, apply
		// membership + migration, then resume (Fig. 17).
		r.paused = true
		d.advanceWork()
		return
	}
	r.stepStart = d.ep.Now()
	r.stepSpan = d.tracer.StartChild("step", r.runSpan.WithStep(r.step))
	d.publishAdvance(&wire.Advance{
		Step: r.step, Phase: wire.PhaseCompute, N: d.n, RunID: r.spec.RunID,
	}, r.stepSpan.Context())
}

func (d *Directory) resumeRun() {
	r := d.run
	r.paused = false
	// Re-announce the run so agents that joined mid-run learn the spec;
	// agents already in the run ignore the duplicate RunID.
	resume := *r.spec
	resume.Resume = true
	d.publishAlgoStart(&resume)
	r.stepStart = d.ep.Now()
	r.stepSpan = d.tracer.StartChild("step", r.runSpan.WithStep(r.step))
	d.publishAdvance(&wire.Advance{
		Step: r.step, Phase: wire.PhaseCompute, N: d.n, RunID: r.spec.RunID,
	}, r.stepSpan.Context())
}

func (d *Directory) finishRun(converged bool) {
	r := d.run
	d.run = nil
	steps := r.step
	if len(r.stepTimes) > 0 {
		steps = uint32(len(r.stepTimes))
	}
	// Close the run's trace. The run context rides the halting Advance,
	// the TAlgoDone broadcast, and the TRunReply so the client can link
	// its own span into the same trace.
	r.stepSpan.End()
	runCtx := r.runSpan.Context()
	d.publishAdvance(&wire.Advance{
		Step: r.step, Phase: wire.PhaseCompute, Halt: true, N: d.n, RunID: r.spec.RunID,
	}, runCtx)
	d.scratch = wire.AppendAlgoDone(d.scratch[:0], &wire.AlgoDone{
		RunID: r.spec.RunID, Steps: steps, Converged: converged,
	})
	d.pub.PublishCtx(wire.TAlgoDone, d.scratch, runCtx)
	r.runSpan.End()
	converged64 := uint64(0)
	if converged {
		converged64 = 1
	}
	d.event(events.Info, events.KindRunDone, runCtx,
		events.U("run", uint64(r.spec.RunID)), events.U("steps", uint64(steps)),
		events.U("converged", converged64))
	d.replyRunStats(r.req, &wire.RunStats{
		RunID: r.spec.RunID, Steps: steps, Converged: converged,
		Wall: d.ep.Now().Sub(r.start), StepTimes: r.stepTimes,
	}, runCtx)
	d.shipSpans()
	// Run boundaries persist the bumped run counter (and the freshest cut
	// table) without waiting for the next view change.
	d.checkpointCoord()
	d.advanceWork()
}
