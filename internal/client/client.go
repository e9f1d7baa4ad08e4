// Package client implements ElGA's ClientProxies: the Participants that
// proxy end-user queries to Agents and trigger computations through the
// directory system (§3.1). Queries use the low-latency REQ/REP path and
// are served by a random replica of the target vertex (§3.4.1).
package client

import (
	"fmt"
	"sync/atomic"
	"time"

	"elga/internal/algorithm"
	"elga/internal/config"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/route"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// Options configures a ClientProxy.
type Options struct {
	// Config is the shared cluster configuration.
	Config config.Config
	// Network is the transport.
	Network transport.Network
	// MasterAddr locates the DirectoryMaster.
	MasterAddr string
	// Metrics, when non-nil, registers the client's query counters and
	// transport stats for the /metrics endpoint.
	Metrics *metrics.Registry
	// Trace configures distributed tracing (zero: off).
	Trace trace.Config
	// Events configures the structured event journal (zero: off). When
	// on, retries and final op failures are journalled and shipped to the
	// coordinator timeline.
	Events events.Config
}

// Validate reports option errors before any resource is allocated.
func (o *Options) Validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Network == nil {
		return fmt.Errorf("client: options: network is required")
	}
	if o.MasterAddr == "" {
		return fmt.Errorf("client: options: master address is required")
	}
	return nil
}

// CallOpts makes the timeout and retry policy of one blocking call
// explicit instead of burying them in the cluster configuration. The
// zero value selects the configured request timeout and the default
// retry policy.
type CallOpts struct {
	// Timeout bounds the whole call including retries (0 selects
	// Config.RequestTimeout).
	Timeout time.Duration
	// Retry shapes the resend schedule; the zero value selects the
	// transport defaults (3 attempts, jittered exponential backoff).
	Retry transport.Retry
}

// Client is a client proxy. Like every participant it is one event loop:
// New assembles it over a transport.Endpoint, and Handle takes its packets
// — the discovery, view broadcasts, the replies to its calls and their
// deadline ticks (transport.Subscriber). Start runs it over a Node. The
// Client is not safe for concurrent use, but its counters are atomics so
// metric scrapes may read them from other goroutines.
type Client struct {
	ep      transport.Endpoint
	sub     *transport.Subscriber
	router  *route.Router
	tracer  *trace.Tracer
	journal *events.Journal // retry and failure events (nil = off)
	queries atomic.Uint64
	retried atomic.Uint64
	salt    uint64
	// lastRunCtx is the trace context of the most recent completed run,
	// correlating later client events with the run's cluster-side spans.
	lastRunCtx trace.SpanContext
}

// Start boots a client proxy over a new node: its loop discovers the
// directories and subscribes to view updates, and Start returns once it
// has subscribed.
func Start(opts Options) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	node, err := transport.NewNode(opts.Network, "", 0)
	if err != nil {
		return nil, err
	}
	c := New(opts, node)
	if opts.Metrics != nil {
		node.RegisterMetrics(opts.Metrics, "client")
		lbl := metrics.Labels{"addr": node.Addr()}
		opts.Metrics.CounterFunc("elga_client_queries_total", "Vertex queries issued.", lbl, c.queries.Load)
		opts.Metrics.CounterFunc("elga_client_retries_total", "Operation attempts beyond the first.", lbl, c.retried.Load)
	}
	if err := c.sub.Start(node); err != nil {
		return nil, opError("bootstrap", err)
	}
	return c, nil
}

// New assembles a client over ep, whose packets go to Handle, and starts
// nothing.
func New(opts Options, ep transport.Endpoint) *Client {
	c := &Client{
		ep:      ep,
		router:  route.New(opts.Config),
		tracer:  trace.NewTracer("client", opts.Trace),
		journal: events.NewJournal("client", opts.Events),
	}
	c.sub = transport.NewSubscriber(ep, transport.SubscriberConfig{
		Master:  opts.MasterAddr,
		Timeout: opts.Config.RequestTimeout,
		View:    func(v *wire.View) error { return c.router.Install(v, ep, nil) },
		Retried: func(name string, try int) {
			c.retried.Add(1)
			c.journal.Emit(events.Warn, events.KindRetry, c.lastRunCtx,
				events.S("op", name), events.U("attempt", uint64(try)))
		},
	})
	return c
}

// Boot starts the discovery Handle runs (transport.Subscriber.Boot).
func (c *Client) Boot() *transport.Boot { return c.sub.Boot() }

// Handle takes one packet (transport.Subscriber.Handle) and reports
// whether the client kept it.
func (c *Client) Handle(pkt *wire.Packet) (retained bool) { return c.sub.Handle(pkt) }

// Close unsubscribes from directory broadcasts and releases the client.
func (c *Client) Close() error {
	c.shipReport()
	c.sub.Close()
	return nil
}

// shipReport sends the coordinator the client's pending spans and
// journalled events as one lossy TReport (the client has no tick loop, so
// it reports at op boundaries and Close).
func (c *Client) shipReport() {
	f := wire.AppendReportHeader(c.ep.NewFrame(wire.TReport), 0)
	empty := len(f)
	if spans := c.tracer.TakeBatch(); spans != nil {
		sb := wire.SpanBatch{Proc: c.tracer.Proc(), Spans: spans}
		f = wire.AppendSection(f, wire.SecSpans, func(b []byte) []byte { return wire.AppendSpanBatch(b, &sb) })
	}
	if evs := c.journal.TakeBatch(); evs != nil {
		f = wire.AppendSection(f, wire.SecEvents, func(b []byte) []byte { return wire.AppendEventBatch(b, evs, c.journal.Dropped()) })
	}
	if len(f) == empty || c.sub.Coord == "" {
		wire.ReleaseFrame(f)
		return
	}
	_ = c.ep.SendFrame(c.sub.Coord, f)
}

// TransportStats returns the client endpoint's transport counters.
func (c *Client) TransportStats() transport.Stats { return c.ep.Stats() }

// Epoch returns the epoch of the newest view the client has received.
func (c *Client) Epoch() uint64 {
	c.sub.Lock()
	defer c.sub.Unlock()
	_ = c.sub.Install()
	return c.router.Epoch()
}

// NumAgents returns the agent count of the newest view the client has
// received.
func (c *Client) NumAgents() int {
	c.sub.Lock()
	defer c.sub.Unlock()
	_ = c.sub.Install()
	return c.router.NumAgents()
}

// WaitReady blocks until at least one agent is visible.
func (c *Client) WaitReady() error {
	return opError("wait-ready", c.sub.Do(transport.Op{
		Name:    "wait-ready",
		Ready:   func() bool { return c.router.NumAgents() > 0 },
		Expired: fmt.Errorf("%w (%w)", ErrNoAgents, transport.ErrTimeout),
	}))
}

// RunSpec describes an algorithm run request.
type RunSpec struct {
	// Algo names the vertex program ("pagerank", "wcc", "bfs", ...).
	Algo string
	// Async selects the asynchronous engine (monotone
	// quiescence-halting programs only: wcc, bfs, sssp).
	Async bool
	// MaxSteps bounds supersteps (0 = program default).
	MaxSteps uint32
	// Epsilon is the residual halt threshold for non-quiescing programs.
	Epsilon float64
	// FromScratch re-initializes state; false runs incrementally from
	// persisted state and batch-touched seeds.
	FromScratch bool
	// Source is the traversal root.
	Source graph.VertexID
	// Timeout bounds the blocking wait (0 = 10 minutes).
	Timeout time.Duration
}

// do runs o under co's policy, a call of the transport.Subscriber,
// journals its failure, ships the op's report and wraps any failure in the
// typed taxonomy. Every request (Run, RunWith, Seal, SealWith, Query,
// QueryWith, StatusEvents) goes through here.
func (c *Client) do(o transport.Op, co CallOpts) error {
	if o.Timeout <= 0 {
		o.Timeout = co.Timeout
	}
	o.Retry = co.Retry
	err := c.sub.Do(o)
	if err != nil {
		c.journal.Emit(events.Error, events.KindOpError, c.lastRunCtx,
			events.S("op", o.Name), events.S("err", err.Error()))
	}
	c.shipReport()
	return opError(o.Name, err)
}

// Run asks the directory system to execute an algorithm and blocks until
// it completes, returning the run statistics. Run is deliberately not
// retried: a timed-out request may still be executing at the directory,
// and re-submitting it would start a second run. Callers whose specs are
// idempotent can opt into retries with RunWith.
func (c *Client) Run(spec RunSpec) (*wire.RunStats, error) {
	if spec.Timeout <= 0 {
		// A run outlives ordinary request budgets; without an explicit
		// bound give the single attempt a long leash.
		spec.Timeout = 10 * time.Minute
	}
	return c.RunWith(spec, CallOpts{Retry: transport.Retry{Attempts: 1}})
}

// RunWith is Run under an explicit retry policy. Every attempt carries the
// call's request ID, and the coordinator drops a copy of a run it is
// running or has queued; but a retried submission whose predecessor has
// finished (its reply lost) runs again, so RunWith is only safe for
// idempotent specs: deterministic FromScratch runs.
// Incremental runs (FromScratch false) must use Run. The per-try wait
// must cover a full run's duration, not just the request round-trip.
func (c *Client) RunWith(spec RunSpec, co CallOpts) (*wire.RunStats, error) {
	if _, ok := algorithm.Lookup(spec.Algo); !ok {
		// The coordinator answers a program it does not know with empty
		// statistics, which would pass for a run that did nothing.
		return nil, opError("run "+spec.Algo, fmt.Errorf("%w %q", ErrUnknownProgram, spec.Algo))
	}
	start := c.ep.Now()
	var stats *wire.RunStats
	o := transport.Op{
		Name:    "run " + spec.Algo,
		Timeout: spec.Timeout,
		Frame: func() []byte {
			return wire.AppendAlgoStart(c.ep.NewFrame(wire.TRunAlgo), &wire.AlgoStart{
				Algo:        spec.Algo,
				Async:       spec.Async,
				MaxSteps:    spec.MaxSteps,
				Epsilon:     spec.Epsilon,
				FromScratch: spec.FromScratch,
				Source:      spec.Source,
			})
		},
		Reply: func(p *wire.Packet) (err error) {
			// The run's trace context arrives only on its reply, so the
			// client's span is recorded now from the request time; the
			// op's report ships it, and the collector sees
			// client→directory→agent under one trace ID.
			c.lastRunCtx = p.Ctx
			c.tracer.StartRemoteAt("client-run", p.Ctx, start).End()
			stats, err = wire.DecodeRunStats(p.Payload)
			return err
		},
	}
	if err := c.do(o, co); err != nil {
		return nil, err
	}
	return stats, nil
}

// Seal asks the directory system to reach a batch boundary with the
// default call policy. See SealWith.
func (c *Client) Seal() error { return c.SealWith(CallOpts{}) }

// SealWith asks the directory system to reach a batch boundary: all
// buffered changes applied, sketch deltas merged, and any resulting
// rebalance completed. It blocks until the cluster is quiescent. Seals
// are idempotent, so the call retries under co's policy.
func (c *Client) SealWith(co CallOpts) error {
	return c.do(transport.Op{
		Name:  "seal",
		Frame: func() []byte { return c.ep.NewFrame(wire.TIngest) },
		Reply: func(*wire.Packet) error { return nil },
	}, co)
}

// Query returns vertex v's current algorithm state from a random replica
// with the default call policy. See QueryWith.
func (c *Client) Query(v graph.VertexID) (algorithm.Word, bool, error) {
	return c.QueryWith(v, CallOpts{})
}

// QueryWith returns vertex v's current algorithm state from a random
// replica under an explicit timeout and retry policy. Each attempt
// re-resolves the replica set against the freshest view, so a retry
// naturally routes around an agent that died since the last attempt.
func (c *Client) QueryWith(v graph.VertexID, co CallOpts) (algorithm.Word, bool, error) {
	c.queries.Add(1)
	var qr *wire.QueryReply
	err := c.do(transport.Op{
		Name: fmt.Sprintf("query %d", v),
		Addr: func() (string, error) {
			c.salt++
			agentID, ok := c.router.AnyReplica(v, c.salt)
			if !ok {
				return "", ErrNoAgents
			}
			addr, ok := c.router.AddrOf(agentID)
			if !ok {
				return "", fmt.Errorf("unknown agent %d: %w", agentID, transport.ErrUnavailable)
			}
			return addr, nil
		},
		Frame: func() []byte {
			return wire.AppendQuery(c.ep.NewFrame(wire.TQuery), &wire.Query{Vertex: v})
		},
		Reply: func(p *wire.Packet) (err error) {
			qr, err = wire.DecodeQueryReply(p.Payload)
			return err
		},
	}, co)
	if err != nil {
		return 0, false, err
	}
	return algorithm.Word(qr.State), qr.Found, nil
}

// QueryFloat is Query for float64-valued programs (PageRank).
func (c *Client) QueryFloat(v graph.VertexID) (float64, bool, error) {
	w, found, err := c.Query(v)
	return w.F64(), found, err
}

// StatusEvents asks the coordinator for the cluster health rollup:
// per-agent scored statuses with the evidence EMAs, plus the newest
// maxEvents of the merged event timeline (0 selects the server default).
// It works with events off — the timeline is simply empty.
func (c *Client) StatusEvents(maxEvents uint32, co CallOpts) (*wire.StatusReply, error) {
	var sr *wire.StatusReply
	err := c.do(transport.Op{
		Name: "status",
		Frame: func() []byte {
			return wire.AppendStatusReq(c.ep.NewFrame(wire.TStatus), maxEvents)
		},
		Reply: func(p *wire.Packet) (err error) {
			sr, err = wire.DecodeStatusReply(p.Payload)
			return err
		},
	}, co)
	if err != nil {
		return nil, err
	}
	return sr, nil
}
