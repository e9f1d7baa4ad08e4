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

// ackGroup is a set of acked sends with one action to run once every one
// of them is acknowledged: ack the packet that caused them, or cast a
// barrier vote. Sends join it while it is being built; arming the action
// (then) runs it at once if nothing is outstanding, else at the last ack.
// An unarmed group runs nothing.
type ackGroup struct {
	pending int
	action  func()
}

// then arms g with action.
func (g *ackGroup) then(action func()) {
	g.action = action
	g.drain()
}

// acked retires one of g's sends, or a hold on it.
func (g *ackGroup) acked() {
	g.pending--
	g.drain()
}

// drain runs g's action, once, when nothing is outstanding.
func (g *ackGroup) drain() {
	if action := g.action; action != nil && g.pending == 0 {
		g.action = nil
		action()
	}
}

// ackWhenDrained acks and releases pkt, the packet that caused g's sends,
// once g drains.
func (a *Agent) ackWhenDrained(g *ackGroup, pkt *wire.Packet) {
	g.then(func() {
		a.ep.Ack(pkt)
		wire.ReleasePacket(pkt)
	})
}

// partialEntry accumulates replica partials at a master. A step's entries
// live by value in one map, recycled through partialFree.
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

	phaseStart time.Time
	// votedAt stamps the barrier vote so the next Advance can measure
	// how long this agent idled at the barrier.
	votedAt time.Time
}

// final reports whether the current step is the run's last. The directory
// halts after it whatever the votes say, and TAlgoDone drops all the mail,
// so nothing the step would scatter is ever read. MaxSteps 0 is no limit.
func (r *runCtx) final() bool { return r.spec.MaxSteps > 0 && r.step+1 >= r.spec.MaxSteps }

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

	skDelta *sketch.Delta
	// buffered holds the stream changes that arrived while a run or this
	// agent's migration round was open (holding).
	buffered []wire.EdgeChange
	// fwdDelete records that a delete was forwarded to its owner since the
	// last batch vote, which reports it with the store's own deletes.
	fwdDelete bool
	// fwdChanges is applyChanges' scratch: the changes it forwards, by the
	// owner's member index.
	fwdChanges [][]wire.EdgeChange

	// prerun holds, in arrival order, the aggregates that arrived while no
	// run was installed, which only a program can merge: each waits for its
	// step's mail to be read (stepMail). The rest of the mail is held by
	// vertex-table slot (vertexTable.mail). foldTab is foldByTarget's
	// scratch.
	prerun  []stepMsg
	foldTab aggTable

	partials map[uint32]map[graph.VertexID]partialEntry
	// partialFree holds consumed per-step partial maps, emptied: the run held
	// at most partialsUsed entries in one, any at most partialsHeld.
	partialFree                []map[graph.VertexID]partialEntry
	partialsUsed, partialsHeld int
	// plan is the routed adjacency scatter walks instead of probing the
	// route table per edge, and dense its transpose a dense run folds
	// along (dense.go); hubPartials and hubUpdates are the one frame per
	// peer that split-vertex records are batched into (compute.go).
	plan        routePlan
	dense       densePlan
	hubPartials []hubFrame
	hubUpdates  []hubFrame

	run *runCtx
	// pendingAdv parks an Advance whose TAlgoStart is still in flight
	// (retransmission reorders frames); handleAlgoStart replays it.
	pendingAdv *wire.Advance

	// phaseGate holds the phase's vote until its sends are acknowledged;
	// reqToGroups maps each outstanding acked send to the groups it feeds.
	phaseGate   *ackGroup
	reqToGroups map[uint32][]*ackGroup
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

	// shard is what every scatter fills (phase.go, sink), kept while runs
	// use it (trimScratch) so steady-state supersteps stop allocating on the
	// scatter path; combineKeys is the combine phase's vertices, sorted.
	shard       computeShard
	combineKeys []graph.VertexID

	migratedEpoch uint64 // last epoch whose migration round we voted in
	// migrating is set while a member's migration round is open, from the
	// view install that starts it to the PhaseMigrate Advance that closes it.
	migrating bool
	// peers holds the addresses of the last membership handleView installed:
	// those the next one drops are where sends can be stranded.
	peers map[string]bool
	// departed are the addresses the membership changes since the last
	// round closed dropped. A graceful leaver's migration batches arrive
	// after the view that drops it, and acking them makes a new peer; the
	// round's closing Advance (PhaseMigrate), which follows every such ack,
	// retires it.
	departed    []string
	mig         migScratch // the migration round's reusable buffers
	fwd         migScratch // forwarding misplaced runs' reusable buffers
	leaving     bool
	readyToExit bool
	done        chan struct{}
	// boot is the bootstrap Handle runs before anything else (Boot).
	boot *transport.Boot

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

	// stepDelay is the chaos hook that injects compute-phase latency to
	// manufacture stragglers in tests. delayHold is the phase gate the
	// injected delay keeps open until its release tick lands (loop-owned).
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

// Start boots an agent over a new node: it starts the event loop, whose
// Handle discovers the directories via the master, subscribes to one and
// joins through the coordinator (Boot), and returns once it has joined.
func Start(opts Options) (*Agent, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	node, err := transport.NewNode(opts.Network, opts.Addr, 0)
	if err != nil {
		return nil, err
	}
	a := New(opts, node)
	boot := a.Boot() // it registers the agent's metrics too
	node.RegisterMetrics(opts.Metrics, "agent")
	go a.runLoop(node.Inbox())
	<-boot.Done()
	if err := boot.Err(); err != nil {
		a.Close()
		return nil, fmt.Errorf("agent: bootstrap: %w", err)
	}
	return a, nil
}

// New assembles an agent over ep, whose packets go to Handle, and starts
// nothing: no ID, view, checkpoint or metrics yet.
func New(opts Options, ep transport.Endpoint) *Agent {
	a := &Agent{
		opts:        opts,
		ep:          ep,
		router:      route.New(opts.Config),
		agentStats:  &agentStats{},
		store:       graph.NewStore(),
		skDelta:     sketch.NewDelta(opts.Config.SketchWidth, opts.Config.SketchDepth),
		partials:    make(map[uint32]map[graph.VertexID]partialEntry),
		phaseGate:   &ackGroup{},
		reqToGroups: make(map[uint32][]*ackGroup),
		done:        make(chan struct{}),
		boot:        transport.NewBoot(ep),
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

// Boot registers the agent's metrics on Options.Metrics and starts the
// bootstrap that Handle runs: a TGetDirectory to the master, then a TJoin to
// the coordinator, each resent until answered. The returned Boot ends once
// the join's view is installed.
func (a *Agent) Boot() *transport.Boot {
	// Restore-before-join: a prior snapshot is loaded into the store and
	// value maps now, so the join's first view change runs the ordinary
	// migration round over the restored state — copies this agent no
	// longer owns ship to their owners, missing ones arrive through the
	// same path, and the agent rejoins warm instead of empty.
	if err := a.initCheckpoint(); err != nil {
		a.boot.End(err)
		return a.boot
	}
	a.initMetrics(a.opts.Metrics) // after the checkpoint writer it reads
	// The master holds its answer until a directory has registered, so an
	// agent started alongside its directories waits rather than fails.
	rt := a.opts.Config.RequestTimeout
	a.boot.Ask(a.opts.MasterAddr, wire.TDirectoryList, rt/5, rt,
		func() []byte { return a.ep.NewFrame(wire.TGetDirectory) })
	return a.boot
}

// booted acts on an answer Boot awaited: the master's directory list, or
// the join's identity and view.
func (a *Agent) booted(pkt *wire.Packet) {
	if pkt.Type == wire.TDirectoryList {
		dirs, err := wire.DecodeStringList(pkt.Payload)
		if err != nil || len(dirs) == 0 {
			a.boot.End(fmt.Errorf("no directories available (%v)", err))
			return
		}
		a.coordAddr = dirs[0]
		a.dirAddr = dirs[a.opts.DirIndex%len(dirs)]
		// Subscribe before joining so the join's view broadcast is not
		// missed. The subscription is acked: a dropped TSubscribe would
		// silently cut this agent off from every future view.
		if _, err := a.ep.SendFrameAcked(a.dirAddr, a.ep.NewFrame(wire.TSubscribe)); err != nil {
			a.boot.End(err)
			return
		}
		// Joins are idempotent at the coordinator (deduplicated by
		// address), so a resent join cannot mint a second agent ID, and a
		// second reply is ignored. Short tries matter here: until the reply
		// lands this agent sends no heartbeats, so every second spent
		// waiting on a dropped reply runs down its lease.
		a.boot.Ask(a.coordAddr, wire.TJoinReply, a.opts.Config.RequestTimeout/20, 0, func() []byte {
			return wire.AppendJoin(a.ep.NewFrame(wire.TJoin),
				&wire.Join{Addr: a.ep.Addr(), Restore: a.ckpt.restored})
		})
		return
	}
	join, err := wire.DecodeJoinReply(pkt.Payload)
	if err != nil {
		a.boot.End(fmt.Errorf("join reply: %w", err))
		return
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
	// Start returns at the reply: the view installs while its caller goes
	// on. What arrived before the join is handled after it, in arrival
	// order.
	parked := a.boot.End(nil)
	a.handleView(join.View)
	a.heartbeat()
	for _, p := range parked {
		if !a.Handle(p) {
			wire.ReleasePacket(p)
		}
	}
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

// releaseVoteHold retires the hold on the held gate exactly as an ack would.
func (a *Agent) releaseVoteHold() {
	if g := a.delayHold; g != nil {
		a.delayHold = nil
		g.acked()
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

func (a *Agent) runLoop(inbox <-chan *wire.Packet) {
	defer close(a.done)
	defer func() {
		// A departed agent holds nothing, and no pending timer holds it.
		a.copyCount.Store(0)
		a.vertexCount.Store(0)
		a.storeBytes.Store(0)
		// The groups' actions point back at the agent. Without them it is
		// part of no cycle, so a finalizer — how the tests watch for
		// whatever still holds a departed agent — can see it die.
		a.reqToGroups, a.phaseGate, a.delayHold = nil, nil, nil
	}()
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
	// durable before the process goes away.
	a.closeCheckpoint()
	_ = a.ep.SendFrame(a.dirAddr, a.ep.NewFrame(wire.TUnsubscribe))
	a.ep.Close()
}

// Handle processes one inbound packet — the one entry point of the event
// loop, bootstrap included — and publishes the store figures other
// goroutines read. It reports whether ownership of pkt was retained
// (deferred for replay, parked until the join, or parked as a deferred-ack
// origin); the caller releases non-retained packets back to the pool.
func (a *Agent) Handle(pkt *wire.Packet) (retained bool) {
	if took, parked := a.boot.Take(pkt, a.booted); took {
		return parked
	}
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
		batch := wire.NewReader(pkt.Payload).U64() // the batch being sealed
		a.journal.Emit(events.Info, events.KindBatch, trace.SpanContext{},
			events.U("agent", a.id), events.U("batch", batch))
		a.handleBatchOpen(uint32(batch))
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
			a.shipReport()
		}
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
		g.acked()
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
// shared by valueOf, which installs it, and peekValue, which does not.
func (a *Agent) initValue(v graph.VertexID) algorithm.Word {
	if a.run == nil {
		return 0
	}
	if debugTrapLazyInit && a.run.spec.FromScratch && a.run.step > 0 {
		out, in := a.store.Degree(v)
		panic(fmt.Sprintf("agent %d: lazy init of vertex %d at step %d (holds=%v out=%d in=%d active=%v)",
			a.id, v, a.run.step, a.store.HasVertex(v), out, in, a.store.IsActive(v)))
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

// sendReady sends the coordinator barrier vote m. Votes are acked: a dropped
// one would wedge the whole cluster at the barrier, so the transport
// retransmits it.
func (a *Agent) sendReady(m wire.Ready) {
	m.AgentID = a.id
	_, _ = a.ep.SendFrameAcked(a.coordAddr, wire.AppendReady(a.ep.NewFrame(wire.TReady), &m))
}

// endPhase arms the phase gate with the phase's barrier vote: local
// processing is complete, and the vote goes once every send the phase made
// is acknowledged, unless the run has ended by then (an eviction can end it
// mid-phase).
func (a *Agent) endPhase() {
	r := a.run
	a.phaseGate.then(func() {
		if a.run == r {
			a.vote()
		}
	})
}

// vote casts the phase's barrier vote.
func (a *Agent) vote() {
	r := a.run
	r.votedAt = a.ep.Now()
	// Metric collection API (§3.4.3): the phase time rides the vote to the
	// directory's autoscaler sink.
	var dur float64
	if !r.phaseStart.IsZero() {
		dur = r.votedAt.Sub(r.phaseStart).Seconds()
	}
	a.sendReady(wire.Ready{Step: r.step, Phase: r.phase, ActiveNext: r.activeNext,
		Residual: r.residual, SplitWork: r.splitWork, PhaseSeconds: dur})
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
	r.activeNext, r.residual = 0, 0
	// The vote carried the phase time; the local phase histograms get it
	// here.
	if r.phaseStart.IsZero() {
		return
	}
	switch r.phase {
	case wire.PhaseCompute:
		a.m.phaseCompute.Observe(dur)
		// Durability cadence rides the post-vote safe point: the barrier
		// vote is already out, so snapshot encoding overlaps the barrier
		// wait instead of stretching the superstep.
		a.maybeCheckpointStep()
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
// plane has pending — staged samples, spans, events, a new checkpoint
// mark — or nothing if nothing is.
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
