// Package cluster boots and drives a complete in-process ElGA deployment:
// a DirectoryMaster, one or more Directories, a set of Agents, plus
// Streamers and ClientProxies on demand. It is the entry point used by the
// examples, the integration tests, and every benchmark in the paper
// reproduction — the stand-in for the pdsh-launched 65-node deployment of
// the artifact appendix.
package cluster

import (
	"fmt"
	"io"
	"os"
	"time"

	"elga/internal/agent"
	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/directory"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/profile"
	"elga/internal/streamer"
	"elga/internal/trace"
	"elga/internal/trace/collect"
	"elga/internal/transport"
	"elga/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// Config is the shared cluster configuration (zero value: Default).
	Config config.Config
	// Network selects the transport; nil uses a fresh in-process
	// network namespace.
	Network transport.Network
	// Directories is the directory server count (default 1).
	Directories int
	// Agents is the initial agent count (default 4).
	Agents int
	// MetricHandler receives autoscaler metrics on the coordinator's
	// event loop (after its health model folds them).
	MetricHandler func(*wire.Metric)
	// Metrics supplies a registry every participant registers on; nil
	// creates one internally, so Registry() always works.
	Metrics *metrics.Registry
	// MetricsAddr, when non-empty, serves /metrics and /debug/pprof for
	// the whole cluster on that address (":0" picks a free port; read it
	// back with MetricsAddr()).
	MetricsAddr string
	// Trace configures distributed tracing for every participant (nil:
	// off). When enabled, the cluster hosts a span collector — read it
	// back with Collector(), WriteTrace, or TraceSummary. The cluster
	// reads no environment: nil means off for every plane below.
	Trace *trace.Config
	// CommAccounting arms every agent's scatter counters (CommStats, the
	// elga_scatter_* metrics).
	CommAccounting bool
	// Durability, when non-nil and Enabled, turns on durable incremental
	// checkpointing for every participant: the harness derives a stable
	// per-slot key for each agent ("agent-<slot>") plus "coordinator" for
	// the coordinator directory, all sharing Durability.Dir. A killed
	// agent slot can then rejoin warm via RestartAgent.
	Durability *checkpoint.Config
	// Events configures the structured event journal for every
	// participant (nil: off). When enabled, the coordinator merges all
	// journals into the cluster timeline — read it back with Status.
	Events *events.Config
	// Profile configures the cluster profiling plane for every
	// participant (nil: off). Agents always answer capture requests;
	// Enabled+AutoCapture arm the coordinator's straggler auto-profiles.
	Profile *profile.Config
}

// valueOf returns *p, or the zero value (the plane off) when p is nil.
func valueOf[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// Cluster is a running ElGA deployment.
type Cluster struct {
	opts   Options
	net    transport.Network
	master *directory.Master
	dirs   []*directory.Directory
	agents []*agent.Agent
	ctl    *client.Client     // internal control client for Seal/Run
	stream *streamer.Streamer // persistent streamer for Load/ApplyBatch
	reg    *metrics.Registry
	srv    *metrics.Server
	// tcfg, ecfg and pcfg are the plane configurations every participant
	// shares; collector assembles their shipped spans (nil when tracing
	// is off).
	tcfg      trace.Config
	ecfg      events.Config
	pcfg      profile.Config
	collector *collect.Collector
	// agentSlots mirrors agents: the durable slot number each live agent
	// was started under ("agent-<slot>" checkpoint keys). nextSlot only
	// grows, so a slot freed by Kill/Remove is reused solely through
	// RestartAgent — keys never collide across live agents.
	agentSlots []int
	nextSlot   int
}

// New boots a cluster and waits until every initial agent has joined.
func New(opts Options) (*Cluster, error) {
	if opts.Config.Virtual == 0 {
		opts.Config = config.Default()
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Directories <= 0 {
		opts.Directories = 1
	}
	if opts.Agents < 0 {
		return nil, fmt.Errorf("cluster: negative agent count")
	}
	net := opts.Network
	if net == nil {
		net = transport.NewInproc()
	}
	c := &Cluster{opts: opts, net: net, reg: opts.Metrics}
	if c.reg == nil {
		c.reg = metrics.NewRegistry()
	}
	// One trace config feeds every participant, so Options.Trace is the
	// only switch.
	c.tcfg = valueOf(opts.Trace)
	c.ecfg = valueOf(opts.Events)
	c.pcfg = valueOf(opts.Profile)
	var spanSink func(proc string, spans []trace.SpanRecord)
	if c.tcfg.Enabled {
		c.collector = collect.New()
		spanSink = c.collector.Add
	}
	if opts.MetricsAddr != "" {
		srv, err := metrics.ListenAndServe(opts.MetricsAddr, c.reg)
		if err != nil {
			return nil, err
		}
		c.srv = srv
	}
	m, err := directory.StartMaster(net, "")
	if err != nil {
		c.Shutdown()
		return nil, err
	}
	c.master = m
	for i := 0; i < opts.Directories; i++ {
		var dirMH func(*wire.Metric)
		var dirSS func(string, []trace.SpanRecord)
		if i == 0 {
			dirMH = opts.MetricHandler
			dirSS = spanSink
		}
		d, err := directory.Start(directory.Options{
			Config:        opts.Config,
			Network:       net,
			MasterAddr:    m.Addr(),
			MetricHandler: dirMH,
			SpanSink:      dirSS,
			Metrics:       c.reg,
			Trace:         c.tcfg,
			Checkpoint:    c.durabilityFor("coordinator"),
			Events:        c.ecfg,
			Profile:       c.pcfg,
		})
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.dirs = append(c.dirs, d)
	}
	for i := 0; i < opts.Agents; i++ {
		if _, err := c.AddAgent(); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	ctl, err := client.Start(client.Options{Config: opts.Config, Network: net, MasterAddr: m.Addr(), Metrics: c.reg, Trace: c.tcfg, Events: c.ecfg})
	if err != nil {
		c.Shutdown()
		return nil, err
	}
	c.ctl = ctl
	if opts.Agents > 0 {
		if err := ctl.WaitReady(); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	return c, nil
}

// Config returns the shared configuration.
func (c *Cluster) Config() config.Config { return c.opts.Config }

// Network returns the cluster's transport.
func (c *Cluster) Network() transport.Network { return c.net }

// MasterAddr returns the DirectoryMaster address for external clients.
func (c *Cluster) MasterAddr() string { return c.master.Addr() }

// NumAgents returns the live agent count.
func (c *Cluster) NumAgents() int { return len(c.agents) }

// Agents returns the live agents (do not mutate).
func (c *Cluster) Agents() []*agent.Agent { return c.agents }

// durabilityFor derives one participant's checkpoint config from the
// shared Durability option (zero when durability is off).
func (c *Cluster) durabilityFor(key string) checkpoint.Config {
	cfg := valueOf(c.opts.Durability)
	cfg.Key = key
	return cfg
}

// startAgent boots one agent under a durable slot key.
func (c *Cluster) startAgent(slot int) (*agent.Agent, error) {
	return agent.Start(agent.Options{
		Config:         c.opts.Config,
		Network:        c.net,
		MasterAddr:     c.master.Addr(),
		DirIndex:       slot,
		Metrics:        c.reg,
		CommAccounting: c.opts.CommAccounting,
		Trace:          c.tcfg,
		Checkpoint:     c.durabilityFor(checkpoint.AgentKey("", slot, 0)),
		Events:         c.ecfg,
		Profile:        c.pcfg,
	})
}

// AddAgent elastically adds one agent, returning it once joined: at the
// join reply, with the migration round the join starts still under way.
// That round closes before any queued computation resumes, and the next
// Seal waits for it; until then a query may miss a vertex whose copies are
// in flight.
func (c *Cluster) AddAgent() (*agent.Agent, error) {
	slot := c.nextSlot
	a, err := c.startAgent(slot)
	if err != nil {
		return nil, err
	}
	c.nextSlot = slot + 1
	c.agents = append(c.agents, a)
	c.agentSlots = append(c.agentSlots, slot)
	return a, nil
}

// AgentSlot returns the durable slot number of the i-th live agent —
// the handle RestartAgent takes after a kill.
func (c *Cluster) AgentSlot(i int) int {
	if i < 0 || i >= len(c.agentSlots) {
		return -1
	}
	return c.agentSlots[i]
}

// RestartAgent boots a fresh agent under a previously used durable slot,
// simulating a crashed process coming back on the same machine: the new
// process restores the slot's last durable snapshot before joining,
// presents its manifest to the coordinator, and reconciles the restored
// state against the current view through the ordinary migration round —
// a warm rejoin instead of a full re-stream.
func (c *Cluster) RestartAgent(slot int) (*agent.Agent, error) {
	if slot < 0 || slot >= c.nextSlot {
		return nil, fmt.Errorf("cluster: unknown agent slot %d", slot)
	}
	for i, s := range c.agentSlots {
		if s == slot {
			return nil, fmt.Errorf("cluster: slot %d is still live (agent %d)", slot, c.agents[i].ID())
		}
	}
	a, err := c.startAgent(slot)
	if err != nil {
		return nil, err
	}
	c.agents = append(c.agents, a)
	c.agentSlots = append(c.agentSlots, slot)
	return a, nil
}

// RemoveAgent gracefully removes the i-th agent: it migrates its edges
// away and exits once the directory confirms the rebalance.
func (c *Cluster) RemoveAgent(i int) error {
	if i < 0 || i >= len(c.agents) {
		return fmt.Errorf("cluster: no agent %d", i)
	}
	a := c.agents[i]
	c.agents = append(c.agents[:i], c.agents[i+1:]...)
	c.agentSlots = append(c.agentSlots[:i], c.agentSlots[i+1:]...)
	if err := a.Leave(); err != nil {
		return err
	}
	select {
	case <-a.Done():
	case <-time.After(c.opts.Config.RequestTimeout):
		a.Close()
		return fmt.Errorf("cluster: agent %d leave timed out", a.ID())
	}
	return nil
}

// KillAgent fail-stops the i-th agent without a leave announcement,
// simulating a crash: its node closes immediately and its edges are NOT
// migrated. The coordinator's failure detector notices the missing
// heartbeats, evicts the agent via the leave/scale-down path, and
// survivors re-own its key ranges. Without durability the killed agent's
// data is lost until re-streamed; with Options.Durability the slot's
// last checkpoint survives on disk, and RestartAgent(slot) rejoins warm
// from it.
func (c *Cluster) KillAgent(i int) error {
	if i < 0 || i >= len(c.agents) {
		return fmt.Errorf("cluster: no agent %d", i)
	}
	a := c.agents[i]
	c.agents = append(c.agents[:i], c.agents[i+1:]...)
	c.agentSlots = append(c.agentSlots[:i], c.agentSlots[i+1:]...)
	// Force the flight recorder out before the node dies. The request is
	// injected through the event loop (never the faulty network), so it
	// cannot race the agent's in-flight Close.
	a.RequestFlightDump("kill")
	err := a.Close()
	// Close joins the event loop, so the tracer is no longer shared: if
	// the injected request lost the race with the node closing, this
	// direct call dumps now (the once-guard de-dups the common case
	// where the loop already served it).
	a.Tracer().DumpFlight(os.Stderr, "kill")
	return err
}

// Epoch returns the view epoch as seen by the control client.
func (c *Cluster) Epoch() uint64 {
	return c.ctl.Epoch()
}

// Coordinator returns the coordinator directory, or nil before boot
// completes. Tests and experiments use it to read coordinator state.
func (c *Cluster) Coordinator() *directory.Directory {
	for _, d := range c.dirs {
		if d.IsCoordinator() {
			return d
		}
	}
	return nil
}

// CommStats sums every live agent's scatter-traffic ledger: local and
// cross-agent message counts plus cross-agent wire bytes. Zero unless the
// cluster was booted with Options.CommAccounting.
func (c *Cluster) CommStats() (local, remote, remoteBytes uint64) {
	for _, a := range c.agents {
		l, r, b := a.CommStats()
		local += l
		remote += r
		remoteBytes += b
	}
	return local, remote, remoteBytes
}

// CheckpointStats sums every live agent's durable-writer counters; all
// zero without Options.Durability.
func (c *Cluster) CheckpointStats() (count, drops, errs, bytes uint64) {
	for _, a := range c.agents {
		cn, d, e, b := a.CheckpointStats()
		count += cn
		drops += d
		errs += e
		bytes += b
	}
	return count, drops, errs, bytes
}

// Registry returns the metric registry every participant registered on.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// MetricsAddr returns the bound scrape address, or "" when Options left
// the endpoint disabled.
func (c *Cluster) MetricsAddr() string {
	if c.srv == nil {
		return ""
	}
	return c.srv.Addr()
}

// Status queries the coordinator's health plane through the control
// client: per-agent scored statuses plus the newest slice of the merged
// event timeline (empty unless Options.Events enabled the journal).
func (c *Cluster) Status() (*wire.StatusReply, error) {
	return c.ctl.Status(client.CallOpts{})
}

// StatusEvents is Status with an explicit timeline depth.
func (c *Cluster) StatusEvents(maxEvents uint32) (*wire.StatusReply, error) {
	return c.ctl.StatusEvents(maxEvents, client.CallOpts{})
}

// ProfileCapture requests profiles of the given kinds from one agent
// (agentID 0 = every agent) through the control client, superstep-scoped
// over steps when a run is active, and returns the minted capture IDs.
func (c *Cluster) ProfileCapture(agentID uint64, kinds []uint8, steps uint32) ([]uint64, error) {
	return c.ctl.ProfileCapture(agentID, kinds, steps, 0, client.CallOpts{})
}

// ProfileList returns the coordinator profile store's artifact manifest
// plus the number of captures still in flight.
func (c *Cluster) ProfileList() ([]wire.ProfileArtifact, uint32, error) {
	return c.ctl.ProfileList(client.CallOpts{})
}

// ProfileFetch returns one stored profile artifact's pprof bytes.
func (c *Cluster) ProfileFetch(segment string) ([]byte, error) {
	return c.ctl.ProfileFetch(segment, client.CallOpts{})
}

// Collector returns the span collector, or nil when tracing is off.
func (c *Cluster) Collector() *collect.Collector { return c.collector }

// WriteTrace exports every assembled timeline as Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing).
func (c *Cluster) WriteTrace(w io.Writer) error {
	if c.collector == nil {
		return fmt.Errorf("cluster: tracing is not enabled")
	}
	return c.collector.WriteChromeTrace(w)
}

// TraceSummary returns the collector's text critical-path summary, or ""
// when tracing is off.
func (c *Cluster) TraceSummary() string {
	if c.collector == nil {
		return ""
	}
	return c.collector.Summary()
}

// NewStreamer creates a streamer attached to this cluster.
func (c *Cluster) NewStreamer() (*streamer.Streamer, error) {
	s, err := streamer.Start(streamer.Options{
		Config: c.opts.Config, Network: c.net, MasterAddr: c.master.Addr(), Metrics: c.reg,
	})
	if err != nil {
		return nil, err
	}
	if err := s.WaitReady(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// NewClient creates a client proxy attached to this cluster.
func (c *Cluster) NewClient() (*client.Client, error) {
	cl, err := client.Start(client.Options{
		Config: c.opts.Config, Network: c.net, MasterAddr: c.master.Addr(), Metrics: c.reg, Trace: c.tcfg, Events: c.ecfg,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// streamer returns the cluster's persistent streamer, creating it on
// first use. Reuse matters: a streamer subscribes to directory
// broadcasts, so per-batch streamers would accumulate dead subscribers.
func (c *Cluster) streamer() (*streamer.Streamer, error) {
	if c.stream != nil {
		return c.stream, nil
	}
	s, err := c.NewStreamer()
	if err != nil {
		return nil, err
	}
	c.stream = s
	return s, nil
}

// Load streams an edge list into the cluster (as insertions) and seals
// the batch: after Load returns, every change is applied, the sketch is
// merged and broadcast, and any replication-driven rebalance is done.
func (c *Cluster) Load(el graph.EdgeList) error {
	return c.ApplyBatch(el.Changes())
}

// ApplyBatch streams a change batch and seals it.
func (c *Cluster) ApplyBatch(b graph.Batch) error {
	s, err := c.streamer()
	if err != nil {
		return err
	}
	if err := s.SendBatch(b); err != nil {
		return err
	}
	if err := s.Flush(); err != nil {
		return err
	}
	return c.Seal()
}

// Seal reaches a batch boundary (see client.Client.Seal).
func (c *Cluster) Seal() error { return c.ctl.Seal() }

// Run executes an algorithm and blocks for its statistics.
func (c *Cluster) Run(spec client.RunSpec) (*wire.RunStats, error) { return c.ctl.Run(spec) }

// Query reads one vertex's state through the control client.
func (c *Cluster) Query(v graph.VertexID) (float64, bool, error) { return c.ctl.QueryFloat(v) }

// QueryWord reads one vertex's raw state.
func (c *Cluster) QueryWord(v graph.VertexID) (uint64, bool, error) {
	w, found, err := c.ctl.Query(v)
	return uint64(w), found, err
}

// TransportStats sums the transport counters across all live agents — a
// cluster-wide picture of message-pipeline health (frame volumes,
// malformed drops, enqueue stalls, and write coalescing efficiency).
func (c *Cluster) TransportStats() transport.Stats {
	var t transport.Stats
	for _, a := range c.agents {
		s := a.TransportStats()
		t.FramesIn += s.FramesIn
		t.FramesOut += s.FramesOut
		t.MalformedFrames += s.MalformedFrames
		t.EnqueueStalls += s.EnqueueStalls
		t.ConnWrites += s.ConnWrites
		t.ConnReads += s.ConnReads
		t.CoalescedFrames += s.CoalescedFrames
		t.Retransmits += s.Retransmits
		t.DuplicatesDropped += s.DuplicatesDropped
		t.AckGiveUps += s.AckGiveUps
		t.RequestRetries += s.RequestRetries
	}
	return t
}

// EdgeCounts returns the per-agent stored copy counts, the load-balance
// observable of Figures 5b and 6.
func (c *Cluster) EdgeCounts() map[uint64]int {
	out := make(map[uint64]int, len(c.agents))
	for _, a := range c.agents {
		out[a.ID()] = a.EdgeCopies()
	}
	return out
}

// Shutdown stops every entity.
func (c *Cluster) Shutdown() {
	if c.stream != nil {
		_ = c.stream.Close()
		c.stream = nil
	}
	if c.ctl != nil {
		c.ctl.Close()
	}
	for _, a := range c.agents {
		a.Close()
	}
	c.agents = nil
	for _, d := range c.dirs {
		d.Close()
	}
	c.dirs = nil
	if c.master != nil {
		c.master.Close()
	}
	if c.srv != nil {
		_ = c.srv.Close()
		c.srv = nil
	}
}
