// Package agent implements ElGA's Agents (§3.4): the entities that hold
// the graph in memory and carry out vertex-centric computation.
//
// An Agent is a single-threaded state machine driven by its inbox. It
// continuously polls its communication channel and acts on whatever packet
// it receives: it validates that it is still the correct destination
// (forwarding otherwise), buffers packets for future iterations, executes
// the algorithm on its vertices, exchanges replica state for split
// vertices, and migrates edges when the directory view changes.
package agent

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/checkpoint"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/profile"
	"elga/internal/route"
	"elga/internal/sketch"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// Options configures an Agent.
type Options struct {
	// Config is the shared cluster configuration.
	Config config.Config
	// Network is the transport.
	Network transport.Network
	// MasterAddr locates the DirectoryMaster for bootstrap.
	MasterAddr string
	// Addr is the listen address ("" auto-allocates).
	Addr string
	// DirIndex selects which directory to subscribe to (mod the
	// directory count); control traffic always goes to the coordinator.
	DirIndex int
	// Metrics, when non-nil, registers this agent's counters, gauges, and
	// phase histograms for the /metrics endpoint. Nil leaves every handle
	// nil (observation points become single branches).
	Metrics *metrics.Registry
	// CommAccounting counts scattered messages as local or remote, and the
	// bytes of the frames that carry the remote ones (CommStats and the
	// elga_scatter_* metrics). Off, the scatter path pays a single branch.
	CommAccounting bool
	// Trace configures distributed tracing (zero: off).
	Trace trace.Config
	// Checkpoint configures durable incremental checkpointing (zero: off).
	// When enabled, the agent restores the snapshot under Checkpoint.Key
	// (checkpoint.AgentKey) before joining and rejoins warm through the
	// normal migration reconciliation.
	Checkpoint checkpoint.Config
	// Events configures the structured control-plane event journal (zero:
	// off). Off, every emission site costs a single nil-receiver branch.
	Events events.Config
	// Profile configures the agent half of the cluster profiling plane.
	// Capture requests are served whatever it says; it only arms the
	// runtime sampling rates. Disarmed, the superstep hot path pays a
	// single predicted branch.
	Profile profile.Config
}

// Validate reports option errors before any resource is allocated.
func (o *Options) Validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Network == nil {
		return fmt.Errorf("agent: options: network is required")
	}
	if o.MasterAddr == "" {
		return fmt.Errorf("agent: options: master address is required")
	}
	return nil
}

// ackGroup tracks a set of outstanding acked sends with a common
// completion action: either "ack the packet that caused them" (deferred
// acknowledgement, used for forwarding chains and replica value updates)
// or "this phase's sends are drained" (origin == nil).
type ackGroup struct {
	pending int
	origin  *wire.Packet
}

// partialEntry accumulates replica partials at a master. A step's entries
// live by value in one map, recycled through partialFree like the mailboxes.
type partialEntry struct {
	agg    algorithm.Word
	have   bool
	outDeg uint64
}

// runCtx is the per-algorithm-run state.
type runCtx struct {
	id      uint32
	spec    *wire.AlgoStart
	prog    algorithm.Program
	adjust  algorithm.PerEdgeAdjuster // nil unless the program adjusts per edge
	ctx     algorithm.Context
	step    uint32
	phase   uint8
	started bool // saw Advance(step 0) or joined mid-run

	residual   float64
	activeNext uint64
	splitWork  bool

	// Asynchronous-mode cumulative message counters (quiescence
	// detection).
	asyncSent     uint64
	asyncReceived uint64

	// doneLocal marks local processing of the current phase complete;
	// Ready is sent when doneLocal && phase gate drained.
	doneLocal  bool
	readySent  bool
	phaseStart time.Time
	// votedAt stamps the barrier vote so the next Advance can measure
	// how long this agent idled at the barrier.
	votedAt time.Time
}

// agentStats is what other goroutines read of an agent: the stats API and
// the closures registered on the shared metric registry. It is allocated
// apart from the Agent and the closures capture nothing else, so a registry
// that outlives the agent keeps these few words, not its store, router and
// node. Counters keep their last value; the loop zeroes the gauges on exit.
type agentStats struct {
	statForwarded uint64
	statApplied   uint64
	statQueries   uint64
	// statUnroutable counts message entries (aggregates, after folding)
	// dropped because their destination had no address in the installed
	// view (addrFor); a correct run leaves it 0.
	statUnroutable uint64

	// Published by the event loop after every packet.
	copyCount   atomic.Int64
	vertexCount atomic.Int64
	storeBytes  atomic.Uint64 // O(1) store footprint estimate
	compactions atomic.Uint64

	// Cumulative scatter totals, counted under Options.CommAccounting.
	localMsgs   atomic.Uint64
	remoteMsgs  atomic.Uint64
	remoteBytes atomic.Uint64
}

// Agent is one ElGA agent.
type Agent struct {
	opts      Options
	ep        transport.Endpoint
	router    *route.Router
	id        uint64
	coordAddr string
	dirAddr   string

	store *graph.Store
	// verts holds the per-vertex state of the superstep path: algorithm
	// value, the run's active set, the phase's work list and whether a split
	// vertex was announced to its master (vtable.go).
	verts vertexTable
	// splits lists the locally present split vertices, which always-active
	// programs feed every step (localSplits).
	splits struct {
		list  []graph.VertexID
		run   uint32
		epoch uint64
		n     int
	}
	// masters is the number of locally present vertices this agent is the
	// master of under view epoch mastersEpoch, kept current from the
	// store's flip log by the batch-open round (walkFlips).
	masters      uint64
	mastersEpoch uint64
	// pins maps each split vertex this agent pins as its master to the
	// replicas registered as holding copies of it (handleRegister). The pin
	// goes when the last of them deregisters, or when a view leaves the
	// vertex unsplit or mastered elsewhere (releasePins).
	pins map[graph.VertexID][]uint64

	skDelta  *sketch.Delta
	buffered []wire.EdgeChange

	// mailbox holds one aggregate table per pending step (the one being
	// computed and the one being scattered into); consumed tables wait in
	// tableFree. foldTab is flush's fold-by-target scratch.
	mailbox   map[uint32]*aggTable
	tableFree []*aggTable
	foldTab   aggTable
	partials  map[uint32]map[graph.VertexID]partialEntry
	// partialFree holds consumed per-step partial maps, emptied.
	partialFree []map[graph.VertexID]partialEntry
	// plan is the routed adjacency scatter walks instead of probing the
	// route table per edge; hubPartials and hubUpdates are the one frame per
	// peer that split-vertex records are batched into (compute.go).
	plan        routePlan
	hubPartials []hubFrame
	hubUpdates  []hubFrame

	run *runCtx
	// pendingAdv parks an Advance whose TAlgoStart is still in flight
	// (retransmission reorders frames); handleAlgoStart replays it.
	pendingAdv *wire.Advance

	phaseGate    *ackGroup
	reqToGroups  map[uint32][]*ackGroup
	pendingVotes []pendingVote
	// deferred holds data-plane packets that arrived before the run
	// context they belong to (broadcasts and peer pushes are not
	// ordered relative to each other); they replay at TAlgoStart.
	deferred []*wire.Packet
	// early holds what beat a view here: migration batches sent under a
	// newer one than is installed, and the vertex messages that came in
	// behind them. handleView replays them once it has caught up.
	early []*wire.Packet

	// Scratch decode targets for the data-plane batch types: handlers
	// decode into these, reusing slice capacity across packets. Safe
	// because the single-threaded event loop never nests batch handlers.
	scratchVMB wire.VertexMsgBatch
	scratchEB  wire.EdgeBatch

	// Reusable intra-phase state (parallel.go) and batcher free lists;
	// capacity persists across phases so steady-state supersteps stop
	// allocating on the scatter path.
	shards      []*computeShard
	combineKeys []graph.VertexID // the combine phase's vertices, sorted,
	combineVals []partialEntry   // and their partials, parallel to its work list
	batcherFree []*msgBatcher
	asyncFree   []*asyncBatcher

	migratedEpoch uint64 // last epoch whose migration round we voted in
	// peers holds the addresses of the last membership handleView installed:
	// those the next one drops are where sends can be stranded.
	peers map[string]bool
	// departed are the addresses the membership changes since the last
	// round closed dropped. A graceful leaver's migration batches arrive
	// after the view that drops it, and acking them makes a new peer; the
	// round's halting Advance, which follows every such ack, retires it.
	departed    []string
	mig         migScratch // the migration round's reusable buffers
	fwd         migScratch // forwarding misplaced runs' reusable buffers
	leaving     bool
	readyToExit bool
	done        chan struct{}

	// Counters exposed for metrics and tests (see agentStats).
	*agentStats
	lastApplied uint64
	lastQueries uint64

	// m holds optional instrumentation handles (nil without a registry);
	// tickCount and lastRetransmits pace the periodic load-metric report
	// riding every fourth heartbeat tick.
	m               agentMetrics
	tickCount       uint64
	lastRetransmits uint64
	samples         []wire.Metric // staged for the next report

	// ckpt is the durability state (checkpoint.go); a nil writer means
	// off, one branch per trigger site.
	ckpt agentCkpt

	// prof is the profiling-plane state (profile.go); its armed flag is
	// the hot path's one branch, and stepDelay is the chaos hook that
	// injects compute-phase latency to manufacture stragglers in tests.
	// delayHold is the phase gate the injected delay keeps open until its
	// release tick lands (loop-owned).
	prof      agentProf
	stepDelay atomic.Int64
	delayHold *ackGroup

	// Distributed tracing (nil tracer = off, one branch per touch point).
	// phaseSpan covers Advance-to-vote processing; barrierSpan covers the
	// vote-to-next-Advance idle that attributes barrier wait per agent per
	// superstep. pendingAdvCtx parks the trace context alongside
	// pendingAdv so a replayed Advance keeps its causal link.
	tracer        *trace.Tracer
	phaseSpan     trace.ActiveSpan
	barrierSpan   trace.ActiveSpan
	pendingAdvCtx trace.SpanContext

	// journal records control-plane events for lossy shipment to the
	// coordinator's timeline (nil journal = off, one branch per site).
	journal *events.Journal
}

// Start boots an agent: it discovers the directories via the master,
// subscribes to one, joins through the coordinator, and starts its event
// loop.
func Start(opts Options) (*Agent, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	node, err := transport.NewNode(opts.Network, opts.Addr, 0)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Agent, error) {
		node.Close()
		return nil, err
	}
	node.SetAckNotify(true)
	a := newAgent(opts, node)
	// Restore-before-join: a prior snapshot is loaded into the store and
	// value maps now, so the join's first view change runs the ordinary
	// migration round over the restored state — copies this agent no
	// longer owns ship to their owners, missing ones arrive through the
	// same path, and the agent rejoins warm instead of empty.
	if err := a.initCheckpoint(); err != nil {
		return fail(err)
	}
	a.initProfile()
	node.RegisterMetrics(opts.Metrics, "agent")
	a.initMetrics(opts.Metrics)
	// The master holds its answer until a directory has registered, so an
	// agent started alongside its directories waits rather than fails. The
	// request retries through the shared policy so bootstrap survives
	// dropped frames.
	policy := transport.Retry{Attempts: 5}
	reply, err := node.RequestRetry(opts.MasterAddr, policy, opts.Config.RequestTimeout,
		func() []byte { return node.NewFrame(wire.TGetDirectory) })
	if err != nil {
		return fail(fmt.Errorf("agent: bootstrap: %w", err))
	}
	dirs, err := wire.DecodeStringList(reply.Payload)
	wire.ReleasePacket(reply)
	if err != nil || len(dirs) == 0 {
		return fail(fmt.Errorf("agent: no directories available (%v)", err))
	}
	a.coordAddr = dirs[0]
	a.dirAddr = dirs[opts.DirIndex%len(dirs)]
	// Subscribe before joining so the join's view broadcast is not missed.
	// The subscription is acked: a dropped TSubscribe would silently cut
	// this agent off from every future view.
	if _, err := node.SendFrameAcked(a.dirAddr, node.NewFrame(wire.TSubscribe)); err != nil {
		return fail(err)
	}
	// Joins are idempotent at the coordinator (deduplicated by address),
	// so retrying a timed-out join cannot mint a second agent ID — and a
	// retried join gets its reply re-sent immediately. Short tries matter
	// here: until the reply lands this agent sends no heartbeats, so every
	// second spent waiting on a dropped reply runs down its lease.
	joinPolicy := policy
	joinPolicy.Attempts = 20
	joinPolicy.PerTry = opts.Config.RequestTimeout / 20
	jr, err := node.RequestRetry(a.coordAddr, joinPolicy, opts.Config.RequestTimeout, func() []byte {
		return wire.AppendJoin(node.NewFrame(wire.TJoin),
			&wire.Join{Addr: node.Addr(), Restore: a.ckpt.restored})
	})
	if err != nil {
		return fail(fmt.Errorf("agent: join: %w", err))
	}
	join, err := wire.DecodeJoinReply(jr.Payload)
	wire.ReleasePacket(jr)
	if err != nil {
		return fail(fmt.Errorf("agent: join reply: %w", err))
	}
	a.id = join.AgentID
	a.tracer.SetProc(fmt.Sprintf("agent-%d", a.id))
	if a.journal != nil {
		a.journal.SetProc(fmt.Sprintf("agent-%d", a.id))
		restored := uint64(0)
		if a.ckpt.restored != nil {
			restored = 1
		}
		a.journal.Emit(events.Info, events.KindJoin, trace.SpanContext{},
			events.U("agent", a.id), events.U("restored", restored))
	}
	go a.runLoop(node.Inbox(), join.View)
	return a, nil
}

// newAgent assembles an agent over ep, before any bootstrap: no ID, view,
// checkpoint or metrics yet.
func newAgent(opts Options, ep transport.Endpoint) *Agent {
	a := &Agent{
		opts:        opts,
		ep:          ep,
		router:      route.New(opts.Config),
		agentStats:  &agentStats{},
		store:       graph.NewStore(),
		skDelta:     sketch.NewDelta(opts.Config.SketchWidth, opts.Config.SketchDepth),
		mailbox:     make(map[uint32]*aggTable),
		partials:    make(map[uint32]map[graph.VertexID]partialEntry),
		phaseGate:   &ackGroup{},
		reqToGroups: make(map[uint32][]*ackGroup),
		done:        make(chan struct{}),
	}
	// The tracer exists before metrics registration (its drop counter is
	// scraped through a closure) and before any packet flows; its proc
	// name is finalized once the join allocates the agent ID.
	a.tracer = trace.NewTracer("agent", opts.Trace)
	// The journal's proc name is provisional until the join assigns an ID;
	// like the tracer, a disabled config yields the nil off switch.
	a.journal = events.NewJournal("agent", opts.Events)
	return a
}

// Tracer exposes the agent's span tracer (nil when tracing is off) for
// tests and fault handlers that force flight-recorder dumps.
func (a *Agent) Tracer() *trace.Tracer { return a.tracer }

// RequestFlightDump asks the event loop to dump the flight recorder.
// Fault paths (lease-sweep eviction noticed elsewhere, chaos Kill) call
// this instead of dumping directly: the request rides Endpoint.Inject onto
// the single-threaded loop — the same route timer ticks take to avoid
// the faulty network — so it cannot race an in-flight Close (Inject
// fails cleanly once the node is closed).
func (a *Agent) RequestFlightDump(reason string) {
	_ = a.ep.Inject(wire.TTick, []byte(reason))
}

// SetComputeDelay injects d of latency into every compute phase — the
// chaos hook that manufactures a deterministic straggler (the inflated
// step time flows through the ordinary metric path into the health
// model). Zero restores normal operation. Safe to call concurrently
// with the event loop.
func (a *Agent) SetComputeDelay(d time.Duration) { a.stepDelay.Store(int64(d)) }

// delayRelease tags the self-injected tick that ends an injected
// compute-phase stall.
const delayRelease = "\x00vote-release"

// holdVote keeps the current phase gate open for d, stalling this
// agent's barrier vote without blocking the event loop: the release
// rides a timed self-injected tick, so inbound scatter keeps getting
// acked while the vote waits — the shape of a real compute straggler.
func (a *Agent) holdVote(d time.Duration) {
	if a.delayHold != nil {
		return // a prior hold still covers this phase
	}
	a.phaseGate.pending++
	a.delayHold = a.phaseGate
	a.ep.After(d, []byte(delayRelease))
}

// releaseVoteHold drains the held gate exactly as an ack would.
func (a *Agent) releaseVoteHold() {
	g := a.delayHold
	if g == nil {
		return
	}
	a.delayHold = nil
	if g.pending--; g.pending == 0 {
		a.gateDrained(g)
	}
}

// Addr returns the agent's dialable address.
func (a *Agent) Addr() string { return a.ep.Addr() }

// ID returns the directory-assigned agent ID.
func (a *Agent) ID() uint64 { return a.id }

// Done is closed when the agent's event loop exits (after a graceful
// leave or Close).
func (a *Agent) Done() <-chan struct{} { return a.done }

// Leave announces a graceful departure: the agent stays alive to migrate
// its edges away and exits once the directory confirms the rebalance.
// The announcement is acked — a silently dropped TLeave would leave the
// caller waiting on Done forever.
func (a *Agent) Leave() error {
	a.journal.Emit(events.Info, events.KindLeave, trace.SpanContext{}, events.U("agent", a.id))
	_, err := a.ep.SendFrameAcked(a.coordAddr,
		wire.AppendLeave(a.ep.NewFrame(wire.TLeave), &wire.Leave{AgentID: a.id}))
	return err
}

// Close terminates the agent immediately (non-graceful). The directory
// notices the silence through the lease timeout and evicts the agent.
func (a *Agent) Close() error {
	a.ep.Close()
	<-a.done
	return nil
}

func (a *Agent) runLoop(inbox <-chan *wire.Packet, initial *wire.View) {
	defer close(a.done)
	defer func() {
		// A departed agent holds nothing, and no pending timer holds it.
		a.copyCount.Store(0)
		a.vertexCount.Store(0)
		a.storeBytes.Store(0)
		// The free lists and parked votes point back at the agent. Without
		// them it is part of no cycle, so a finalizer — how the tests watch
		// for whatever still holds a departed agent — can see it die.
		a.batcherFree, a.asyncFree, a.pendingVotes = nil, nil, nil
	}()
	if initial != nil {
		a.handleView(initial)
	}
	a.heartbeat()
	for pkt := range inbox {
		if !a.Handle(pkt) {
			wire.ReleasePacket(pkt)
		}
		if a.leaving && a.readyToExit {
			break
		}
	}
	// Ship what is pending while the node may still deliver it. No flight
	// dump: a graceful exit is not a post-mortem (fault paths, eviction and
	// kill, dump explicitly before this point).
	a.shipReport()
	// Drain the checkpoint writer so the last submitted snapshot is
	// durable before the process goes away, and release any live CPU
	// profiling window so the process-wide slot is not leaked.
	a.closeCheckpoint()
	a.closeProfile()
	_ = a.ep.SendFrame(a.dirAddr, a.ep.NewFrame(wire.TUnsubscribe))
	a.ep.Close()
}

// Handle processes one inbound packet — the one entry point of the event
// loop — and publishes the store figures other goroutines read. It reports
// whether ownership of pkt was retained (deferred for replay, or parked as a
// deferred-ack origin); the caller releases non-retained packets back to the
// pool.
func (a *Agent) Handle(pkt *wire.Packet) (retained bool) {
	retained = a.handlePacket(pkt)
	a.copyCount.Store(int64(a.store.NumEdgeCopies()))
	a.vertexCount.Store(int64(a.store.NumVertices()))
	a.storeBytes.Store(a.store.MemoryBytes())
	a.compactions.Store(a.store.Compactions())
	return retained
}

// handlePacket is Handle without the published figures; replays of parked
// packets go through it.
func (a *Agent) handlePacket(pkt *wire.Packet) bool {
	switch pkt.Type {
	case wire.TAck:
		a.onAck(pkt.Req)
	case wire.TDirUpdate:
		if v, err := wire.DecodeView(pkt.Payload); err == nil {
			a.handleView(v)
		}
		a.ep.Ack(pkt)
	case wire.TEdges:
		return a.handleEdges(pkt)
	case wire.TVertexMsgs:
		if len(a.early) > 0 {
			// This agent's view is known to be stale (see handleEdges): mail
			// rerouted after the copies it follows would be bounced too.
			a.early = append(a.early, pkt)
			return true
		}
		return a.handleVertexMsgs(pkt)
	case wire.TReplicaPartial:
		return a.handlePartial(pkt)
	case wire.TValueUpdate:
		return a.handleValueUpdate(pkt)
	case wire.TReplicaRegister:
		a.handleRegister(pkt)
	case wire.TAlgoStart:
		a.handleAlgoStart(pkt)
		a.ep.Ack(pkt)
	case wire.TAdvance:
		if adv, err := wire.DecodeAdvance(pkt.Payload); err == nil {
			a.handleAdvance(adv, pkt.Ctx)
		}
		a.ep.Ack(pkt)
	case wire.TAlgoDone:
		a.handleAlgoDone(pkt)
		a.ep.Ack(pkt)
		// Report spans now, not at the next tick: the collector wants the
		// final steps. Run completion is also a forced checkpoint: final
		// vertex values are exactly what a restarted agent must not lose.
		a.shipReport()
		a.checkpointNow(true)
	case wire.TBatchOpen:
		a.journal.Emit(events.Info, events.KindBatch, trace.SpanContext{},
			events.U("agent", a.id), events.U("batch", a.router.BatchID()+1))
		a.handleBatchOpen()
		a.ep.Ack(pkt)
	case wire.TTick:
		// Payload-bearing ticks are injected control messages, serialized
		// here so they cannot race Close: the compute-delay release, or a
		// flight-dump request (see RequestFlightDump).
		if len(pkt.Payload) > 0 {
			if string(pkt.Payload) == delayRelease {
				a.releaseVoteHold()
				return false
			}
			a.tracer.DumpFlight(os.Stderr, string(pkt.Payload))
			return false
		}
		// Self-addressed heartbeat tick: renew the lease from the event
		// loop, where id/epoch/leaving are safe to read. Every fourth tick
		// reports the load metrics, so the autoscaler sees queue pressure
		// and fault signals between supersteps, with all else pending.
		a.heartbeat()
		a.tickCount++
		if a.tickCount%4 == 0 {
			a.stageLoadMetrics()
			a.maybeCheckpointTimed()
			a.closeOrphanedProfiles()
			a.shipReport()
		}
	case wire.TProfileReq:
		a.handleProfileReq(pkt)
	case wire.TQuery:
		a.handleQuery(pkt)
	case wire.TPing:
		_ = a.ep.ReplyFrame(pkt, a.ep.NewFrame(wire.TPong))
	default:
	}
	return false
}

// onAck resolves one acknowledged send against its groups.
func (a *Agent) onAck(req uint32) {
	groups, ok := a.reqToGroups[req]
	if !ok {
		return
	}
	delete(a.reqToGroups, req)
	for _, g := range groups {
		g.pending--
		if g.pending > 0 {
			continue
		}
		if g.origin != nil {
			a.ep.Ack(g.origin)
			wire.ReleasePacket(g.origin)
			g.origin = nil
			continue
		}
		a.gateDrained(g)
	}
}

// gateDrained fires the barrier votes the drained gate g held back and, if g
// is the phase gate, the phase's own vote.
func (a *Agent) gateDrained(g *ackGroup) {
	kept := a.pendingVotes[:0]
	for _, pv := range a.pendingVotes {
		if pv.gate == g {
			pv.fire()
		} else {
			kept = append(kept, pv)
		}
	}
	a.pendingVotes = kept
	if g == a.phaseGate {
		a.maybeReady()
	}
}

// sendGatedFrame performs an acked frame send whose completion feeds the
// groups. The frame must come from ep.NewFrame with the payload
// appended in place (wire.AppendX); ownership transfers to the transport.
// A send that fails locally feeds no group, so gates cannot wedge on it; the
// error says so to a caller for which the loss matters.
func (a *Agent) sendGatedFrame(addr string, frame []byte, groups ...*ackGroup) error {
	req, err := a.ep.SendFrameAcked(addr, frame)
	if err != nil {
		return err
	}
	for _, g := range groups {
		g.pending++
	}
	a.reqToGroups[req] = groups
	return nil
}

// initValue computes v's initial algorithm state without installing it —
// shared by valueOf (which installs) and peekValue (which must not write
// the vertex table from phase workers).
func (a *Agent) initValue(v graph.VertexID) algorithm.Word {
	if a.run == nil {
		return 0
	}
	if debugTrapLazyInit && a.run.spec.FromScratch && a.run.step > 0 {
		panic(fmt.Sprintf("agent %d: lazy init of vertex %d at step %d (holds=%v out=%d in=%d active=%v)",
			a.id, v, a.run.step, a.store.HasVertex(v), a.store.OutDegree(v), a.store.InDegree(v), a.store.IsActive(v)))
	}
	return a.run.prog.Init(v, &a.run.ctx)
}

// valueOf returns v's algorithm state, lazily initializing through the
// running program.
func (a *Agent) valueOf(v graph.VertexID) algorithm.Word {
	i := a.verts.at(v)
	w := a.peekValue(i)
	a.verts.setAt(i, w)
	return w
}

// isMaster reports whether this agent is v's master replica. Each graph
// vertex is mastered exactly once cluster-wide, so the directory's sum of
// the agents' master counts is the global vertex count.
func (a *Agent) isMaster(v graph.VertexID) bool {
	m, ok := a.router.Master(v)
	return ok && m == consistent.AgentID(a.id)
}

// walkFlips is the batch-open round's count of the vertices mastered here.
// It depends only on which vertices are present and on the view, so under
// an unchanged view it replays the store's flip log — the vertices that
// appeared or vanished since the last round — and walks every vertex only
// after a view change (or when the log was abandoned as longer than the
// walk). Registrations are not its business: an edit that changes a split
// vertex's presence (applyChanges) or a migration round settles those
// before the round that counts.
func (a *Agent) walkFlips() uint64 {
	flips, ok := a.store.TakeFlips()
	if epoch := a.router.Epoch(); !ok || epoch != a.mastersEpoch {
		a.masters, a.mastersEpoch = 0, epoch
		a.store.Vertices(func(v graph.VertexID) bool {
			if a.isMaster(v) {
				a.masters++
			}
			return true
		})
		return a.masters
	}
	// A vertex logged an odd number of times changed presence; one logged
	// an even number of times is back where the last round left it.
	slices.Sort(flips)
	for i := 0; i < len(flips); {
		v, n := flips[i], 0
		for ; i < len(flips) && flips[i] == v; i++ {
			n++
		}
		if n%2 == 1 && a.isMaster(v) {
			if a.store.HasVertex(v) {
				a.masters++
			} else {
				a.masters--
			}
		}
	}
	return a.masters
}

func (a *Agent) sendReady(step uint32, phase uint8, masters uint64) {
	r := &wire.Ready{
		AgentID: a.id,
		Step:    step,
		Phase:   phase,
		Masters: masters,
	}
	if a.run != nil && (phase == wire.PhaseCompute || phase == wire.PhaseCombine) {
		r.ActiveNext = a.run.activeNext
		r.Residual = a.run.residual
		r.SplitWork = a.run.splitWork
		// Metric collection API (§3.4.3): the phase time rides the vote to
		// the directory's autoscaler sink.
		if !a.run.phaseStart.IsZero() {
			r.PhaseSeconds = a.run.votedAt.Sub(a.run.phaseStart).Seconds()
		}
	}
	// Barrier votes are acked: a dropped Ready would wedge the whole
	// cluster at the barrier, so the transport retransmits it.
	_, _ = a.ep.SendFrameAcked(a.coordAddr, wire.AppendReady(a.ep.NewFrame(wire.TReady), r))
}

// maybeReady fires the barrier vote once local processing is complete and
// the phase gate has drained.
func (a *Agent) maybeReady() {
	r := a.run
	if r == nil || r.readySent || !r.doneLocal || a.phaseGate.pending > 0 {
		return
	}
	r.readySent = true
	r.votedAt = a.ep.Now()
	a.sendReady(r.step, r.phase, 0)
	// The phase span closes at the vote; the barrier-wait span opens under
	// it and runs until the next Advance lands (handleAdvance ends it) —
	// per-agent, per-superstep barrier attribution.
	if a.phaseSpan.Recording() {
		a.phaseSpan.End()
		a.barrierSpan = a.tracer.StartChild("barrier-wait", a.phaseSpan)
		a.phaseSpan = trace.ActiveSpan{}
	}
	// Reset per-phase accumulators after voting; combine-phase votes
	// report only combine-phase contributions.
	r.activeNext = 0
	r.residual = 0
	// The vote carried the phase time; the local phase histograms get it
	// here.
	if r.phaseStart.IsZero() {
		return
	}
	dur := r.votedAt.Sub(r.phaseStart).Seconds()
	switch r.phase {
	case wire.PhaseCompute:
		a.m.phaseCompute.Observe(dur)
		// Durability cadence rides the post-vote safe point: the barrier
		// vote is already out, so snapshot encoding overlaps the barrier
		// wait instead of stretching the superstep. Superstep-scoped
		// profile windows arm and close at the same safe point, aligning
		// samples with compute phases.
		a.maybeCheckpointStep()
		a.maybeProfileStep()
	case wire.PhaseCombine:
		a.m.phaseCombine.Observe(dur)
	}
}

// heartbeat renews this agent's lease at the coordinator and arms the next
// heartbeat tick. Heartbeats are deliberately lossy (unacked): the lease
// timeout absorbs several consecutive losses, and a false eviction is
// recoverable — the coordinator pushes the latest view back to any zombie
// it hears from.
func (a *Agent) heartbeat() {
	a.ep.After(a.opts.Config.HeartbeatEvery(), nil)
	if a.leaving {
		return
	}
	_ = a.ep.SendFrame(a.coordAddr, wire.AppendHeartbeat(
		a.ep.NewFrame(wire.THeartbeat), &wire.Heartbeat{AgentID: a.id, Epoch: a.router.Epoch()}))
}

// stageLoadMetrics stages the backpressure/fault half of the metric API —
// queue depths, the goroutine count (a pile-up of stuck sends or leaked
// workers is not queue depth) and the retransmission delta.
func (a *Agent) stageLoadMetrics() {
	if a.leaving {
		return
	}
	ts := a.ep.Stats()
	a.samples = append(a.samples,
		wire.Metric{Name: autoscale.MetricInboxDepth, Value: float64(ts.InboxDepth)},
		wire.Metric{Name: autoscale.MetricQueueDepth, Value: float64(ts.QueueDepth)},
		wire.Metric{Name: autoscale.MetricGoroutines, Value: float64(runtime.NumGoroutine())},
		wire.Metric{Name: autoscale.MetricRetransmits, Value: float64(ts.Retransmits - a.lastRetransmits)})
	a.lastRetransmits = ts.Retransmits
}

// shipReport sends the coordinator one lossy TReport holding what each
// plane has pending — staged samples, spans, events, a new checkpoint mark,
// profile chunks — or nothing if nothing is. A chunk that would push the
// frame past profChunkSize starts a new one.
func (a *Agent) shipReport() {
	f := wire.AppendReportHeader(a.ep.NewFrame(wire.TReport), a.id)
	empty := len(f)
	if len(a.samples) > 0 {
		f = wire.AppendSection(f, wire.SecMetrics, func(b []byte) []byte { return wire.AppendMetrics(b, a.samples) })
		a.samples = a.samples[:0]
	}
	if spans := a.tracer.TakeBatch(); spans != nil {
		sb := wire.SpanBatch{Proc: a.tracer.Proc(), Spans: spans}
		f = wire.AppendSection(f, wire.SecSpans, func(b []byte) []byte { return wire.AppendSpanBatch(b, &sb) })
	}
	if evs := a.journal.TakeBatch(); evs != nil {
		f = wire.AppendSection(f, wire.SecEvents, func(b []byte) []byte { return wire.AppendEventBatch(b, evs, a.journal.Dropped()) })
	}
	f = a.appendMark(f)
	for _, ck := range a.profileChunks() {
		if len(f) > empty && len(f)+len(ck.Data) > profChunkSize {
			_ = a.ep.SendFrame(a.coordAddr, f)
			f = wire.AppendReportHeader(a.ep.NewFrameHint(wire.TReport, 96+len(ck.Data)), a.id)
		}
		f = wire.AppendSection(f, wire.SecProfileChunk, func(b []byte) []byte { return wire.AppendProfileChunk(b, &ck) })
	}
	if len(f) == empty {
		wire.ReleaseFrame(f)
		return
	}
	_ = a.ep.SendFrame(a.coordAddr, f)
}

// Stats returns internal counters (forwarded packets, applied changes,
// answered queries) for tests and metrics.
func (a *Agent) Stats() (forwarded, applied, queries uint64) {
	return atomic.LoadUint64(&a.statForwarded), atomic.LoadUint64(&a.statApplied), atomic.LoadUint64(&a.statQueries)
}

// CommStats returns the cumulative scatter-traffic split: logical messages
// delivered locally and sent to peers, and the bytes of the TVertexMsgs
// frames actually encoded for peers (after combining). All zero without
// Options.CommAccounting. Race-safe for tests and metrics.
func (a *Agent) CommStats() (local, remote, remoteBytes uint64) {
	return a.localMsgs.Load(), a.remoteMsgs.Load(), a.remoteBytes.Load()
}

// TransportStats returns the agent node's transport counters (frame
// volumes, malformed drops, enqueue stalls, write coalescing).
func (a *Agent) TransportStats() transport.Stats { return a.ep.Stats() }

// EdgeCopies returns the stored copy count as of the last processed
// packet — the agent's memory-relevant load (Figures 5b, 6, 16a).
func (a *Agent) EdgeCopies() int { return int(a.copyCount.Load()) }

// VertexCount returns the locally present vertex count as of the last
// processed packet.
func (a *Agent) VertexCount() int { return int(a.vertexCount.Load()) }

// debugTrapLazyInit makes mid-run lazy state initialization panic; tests
// flip it to catch migration gaps.
var debugTrapLazyInit = false
