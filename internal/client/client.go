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
	// Retry shapes the per-attempt schedule; the zero value selects the
	// transport defaults (3 attempts, jittered exponential backoff).
	Retry transport.Retry
}

func (co CallOpts) timeout(cfg *config.Config) time.Duration {
	if co.Timeout > 0 {
		return co.Timeout
	}
	return cfg.RequestTimeout
}

// Client is a client proxy. It is not safe for concurrent use, but its
// counters are atomics so metric scrapes may read them from other
// goroutines.
type Client struct {
	opts      Options
	node      *transport.Node
	router    *route.Router
	feed      *route.Feed
	coordAddr string
	dirAddr   string
	salt      uint64
	queries   atomic.Uint64
	retried   atomic.Uint64
	tracer    *trace.Tracer
	// journal records retry/failure events (nil = off); lastRunCtx is the
	// trace context of the most recent completed run, correlating later
	// client events with the run's cluster-side spans.
	journal    *events.Journal
	lastRunCtx trace.SpanContext
}

// Start boots a client proxy and waits for a directory view.
func Start(opts Options) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	node, err := transport.NewNode(opts.Network, "", 0)
	if err != nil {
		return nil, err
	}
	c := &Client{opts: opts, node: node, router: route.New(opts.Config)}
	c.feed = route.NewFeed(node, c.router, nil)
	c.tracer = trace.NewTracer("client", opts.Trace)
	c.journal = events.NewJournal("client", opts.Events)
	if opts.Metrics != nil {
		node.RegisterMetrics(opts.Metrics, "client")
		lbl := metrics.Labels{"addr": node.Addr()}
		opts.Metrics.CounterFunc("elga_client_queries_total", "Vertex queries issued.", lbl, c.queries.Load)
		opts.Metrics.CounterFunc("elga_client_retries_total", "Operation attempts beyond the first.", lbl, c.retried.Load)
	}
	reply, err := node.RequestRetry(opts.MasterAddr, transport.Retry{Attempts: 5},
		opts.Config.RequestTimeout,
		func() []byte { return node.NewFrame(wire.TGetDirectory) })
	if err != nil {
		node.Close()
		return nil, opError("bootstrap", err)
	}
	dirs, err := wire.DecodeStringList(reply.Payload)
	wire.ReleasePacket(reply)
	if err != nil {
		node.Close()
		return nil, opError("bootstrap", err)
	}
	if len(dirs) == 0 {
		node.Close()
		return nil, opError("bootstrap", ErrNoDirectories)
	}
	c.coordAddr = dirs[0]
	c.dirAddr = dirs[len(dirs)-1]
	// The subscription is acked: losing it would freeze this client's
	// view of the membership forever.
	if _, err := node.SendFrameAcked(c.dirAddr, wire.AppendSubscribeTypes(
		node.NewFrame(wire.TSubscribe), wire.TDirUpdate)); err != nil {
		node.Close()
		return nil, err
	}
	return c, nil
}

// Close unsubscribes from directory broadcasts and releases the client.
func (c *Client) Close() error {
	c.shipReport()
	_ = c.node.SendFrame(c.dirAddr, c.node.NewFrame(wire.TUnsubscribe))
	c.node.Close()
	return nil
}

// shipReport sends the coordinator the client's pending spans and
// journalled events as one lossy TReport (the client has no tick loop, so
// it reports at op boundaries and Close).
func (c *Client) shipReport() {
	f := wire.AppendReportHeader(c.node.NewFrame(wire.TReport), 0)
	empty := len(f)
	if spans := c.tracer.TakeBatch(); spans != nil {
		sb := wire.SpanBatch{Proc: c.tracer.Proc(), Spans: spans}
		f = wire.AppendSection(f, wire.SecSpans, func(b []byte) []byte { return wire.AppendSpanBatch(b, &sb) })
	}
	if evs := c.journal.TakeBatch(); evs != nil {
		f = wire.AppendSection(f, wire.SecEvents, func(b []byte) []byte { return wire.AppendEventBatch(b, evs, c.journal.Dropped()) })
	}
	if len(f) == empty {
		wire.ReleaseFrame(f)
		return
	}
	_ = c.node.SendFrame(c.coordAddr, f)
}

// TransportStats returns the client node's transport counters.
func (c *Client) TransportStats() transport.Stats { return c.node.Stats() }

// Epoch returns the epoch of the newest view the client has received.
func (c *Client) Epoch() uint64 {
	_ = c.feed.Install(0)
	return c.router.Epoch()
}

// NumAgents returns the agent count of the newest view the client has
// received.
func (c *Client) NumAgents() int {
	_ = c.feed.Install(0)
	return c.router.NumAgents()
}

// WaitReady blocks until at least one agent is visible.
func (c *Client) WaitReady() error {
	deadline := time.Now().Add(c.opts.Config.RequestTimeout)
	for c.router.NumAgents() == 0 {
		wait := time.Until(deadline)
		if wait <= 0 {
			return opError("wait-ready", fmt.Errorf("%w (%w)", ErrNoAgents, transport.ErrTimeout))
		}
		if err := c.feed.Install(wait); err != nil {
			return opError("wait-ready", err)
		}
	}
	return nil
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

// op describes one blocking client operation: where it goes, how to
// build a fresh request frame per attempt, and how to consume the reply.
// do is the single execution core — every exported call (Run, RunWith,
// Seal, SealWith, Query, QueryWith) is a thin named wrapper over it, so
// timeout selection, retry shaping, per-attempt routing, packet release,
// and typed error wrapping live in exactly one place.
type op struct {
	// name labels the operation in the typed OpError ("run pagerank",
	// "seal", "query 42").
	name string
	// timeout overrides the CallOpts/config default budget when positive.
	timeout time.Duration
	// single marks a non-idempotent operation: exactly one attempt with
	// the whole budget (Run — a timed-out submission may still execute,
	// and re-submitting would queue a second run).
	single bool
	// addr resolves the destination per attempt; nil targets the
	// coordinator. Per-attempt re-resolution lets a retry route around
	// an agent that died since the last attempt.
	addr func() (string, error)
	// frame builds a fresh request frame (frames are consumed on send).
	frame func() []byte
	// reply consumes the reply payload; nil ignores it. do releases the
	// packet after reply returns, so implementations must not retain it.
	reply func(*wire.Packet) error
}

// do executes one op under co's policy and wraps any failure in the
// typed taxonomy.
func (c *Client) do(o op, co CallOpts) error {
	overall := o.timeout
	if overall <= 0 {
		overall = co.timeout(&c.opts.Config)
	}
	deadline := time.Now().Add(overall)
	perTry := co.Retry.PerTry
	if o.single {
		perTry = overall
	} else if perTry <= 0 {
		attempts := co.Retry.Attempts
		if attempts <= 0 {
			attempts = 3
		}
		perTry = overall / time.Duration(attempts)
		if perTry < 50*time.Millisecond {
			perTry = 50 * time.Millisecond
		}
	}
	attempt := 0
	try := func() error {
		if attempt++; attempt > 1 {
			c.retried.Add(1)
			c.journal.Emit(events.Warn, events.KindRetry, c.lastRunCtx,
				events.S("op", o.name), events.U("attempt", uint64(attempt)))
		}
		addr := c.coordAddr
		if o.addr != nil {
			var err error
			if addr, err = o.addr(); err != nil {
				return err
			}
		}
		t := perTry
		if rem := time.Until(deadline); rem < t {
			t = rem
		}
		if t <= 0 {
			return fmt.Errorf("retry budget exhausted: %w", transport.ErrTimeout)
		}
		reply, err := c.node.RequestFrame(addr, o.frame(), t)
		if err != nil {
			return err
		}
		if o.reply != nil {
			err = o.reply(reply)
		}
		wire.ReleasePacket(reply)
		return err
	}
	var err error
	if o.single {
		err = try()
	} else {
		err = co.Retry.Do(deadline, try)
	}
	if err != nil {
		c.journal.Emit(events.Error, events.KindOpError, c.lastRunCtx,
			events.S("op", o.name), events.S("err", err.Error()))
	}
	c.shipReport()
	return opError(o.name, err)
}

// Run asks the directory system to execute an algorithm and blocks until
// it completes, returning the run statistics. Run is deliberately not
// retried: a timed-out request may still be executing at the directory,
// and re-submitting it would start a second run. Callers whose specs are
// idempotent can opt into retries with RunWith.
func (c *Client) Run(spec RunSpec) (*wire.RunStats, error) {
	return c.run(spec, CallOpts{}, true)
}

// linkRunSpan records the client's side of a run retroactively: the run's
// trace context arrives only on the TRunReply frame, so the span is
// started at the remembered request time and closed now; the op's report
// ships it to the coordinator so the collector sees client→directory→agent
// under one trace ID.
func (c *Client) linkRunSpan(ctx trace.SpanContext, start time.Time) {
	c.lastRunCtx = ctx
	c.tracer.StartRemoteAt("client-run", ctx, start).End()
}

// RunWith is Run under an explicit retry policy. A retried submission
// whose predecessor actually reached the directory queues a second,
// identical run — the directory executes runs in order — so RunWith is
// only safe for idempotent specs: deterministic FromScratch runs.
// Incremental runs (FromScratch false) must use Run. The per-try wait
// must cover a full run's duration, not just the request round-trip.
func (c *Client) RunWith(spec RunSpec, co CallOpts) (*wire.RunStats, error) {
	return c.run(spec, co, false)
}

// run is the shared Run/RunWith body over the do core.
func (c *Client) run(spec RunSpec, co CallOpts, single bool) (*wire.RunStats, error) {
	if _, ok := algorithm.Lookup(spec.Algo); !ok {
		// The coordinator answers a program it does not know with empty
		// statistics, which would pass for a run that did nothing.
		return nil, opError("run "+spec.Algo, fmt.Errorf("%w %q", ErrUnknownProgram, spec.Algo))
	}
	timeout := spec.Timeout
	if timeout <= 0 && single {
		// A run outlives ordinary request budgets; without an explicit
		// bound give the single attempt a long leash.
		timeout = 10 * time.Minute
	}
	start := time.Now()
	var stats *wire.RunStats
	err := c.do(op{
		name:    "run " + spec.Algo,
		timeout: timeout,
		single:  single,
		frame:   func() []byte { return c.runFrame(spec) },
		reply: func(p *wire.Packet) error {
			c.linkRunSpan(p.Ctx, start)
			decoded, err := wire.DecodeRunStats(p.Payload)
			if err != nil {
				return err
			}
			stats = decoded
			return nil
		},
	}, co)
	if err != nil {
		return nil, err
	}
	return stats, nil
}

func (c *Client) runFrame(spec RunSpec) []byte {
	return wire.AppendAlgoStart(c.node.NewFrame(wire.TRunAlgo), &wire.AlgoStart{
		Algo:        spec.Algo,
		Async:       spec.Async,
		MaxSteps:    spec.MaxSteps,
		Epsilon:     spec.Epsilon,
		FromScratch: spec.FromScratch,
		Source:      spec.Source,
	})
}

// Seal asks the directory system to reach a batch boundary with the
// default call policy. See SealWith.
func (c *Client) Seal() error { return c.SealWith(CallOpts{}) }

// SealWith asks the directory system to reach a batch boundary: all
// buffered changes applied, sketch deltas merged, and any resulting
// rebalance completed. It blocks until the cluster is quiescent. Seals
// are idempotent, so the call retries under co's policy.
func (c *Client) SealWith(co CallOpts) error {
	return c.do(op{
		name:  "seal",
		frame: func() []byte { return c.node.NewFrame(wire.TIngest) },
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
	err := c.do(op{
		name: fmt.Sprintf("query %d", v),
		addr: func() (string, error) {
			if err := c.feed.Install(0); err != nil {
				return "", err
			}
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
		frame: func() []byte {
			return wire.AppendQuery(c.node.NewFrame(wire.TQuery), &wire.Query{Vertex: v})
		},
		reply: func(p *wire.Packet) error {
			decoded, err := wire.DecodeQueryReply(p.Payload)
			if err != nil {
				return err
			}
			qr = decoded
			return nil
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

// Status asks the coordinator for the cluster health rollup: per-agent
// scored statuses with the evidence EMAs, plus the newest slice of the
// merged event timeline (the server default depth). Status works with
// events off — the timeline is simply empty.
func (c *Client) Status(co CallOpts) (*wire.StatusReply, error) {
	return c.StatusEvents(0, co)
}

// StatusEvents is Status with an explicit timeline depth (0 selects the
// server default).
func (c *Client) StatusEvents(maxEvents uint32, co CallOpts) (*wire.StatusReply, error) {
	var sr *wire.StatusReply
	err := c.do(op{
		name: "status",
		frame: func() []byte {
			return wire.AppendStatusReq(c.node.NewFrame(wire.TStatus), maxEvents)
		},
		reply: func(p *wire.Packet) error {
			decoded, err := wire.DecodeStatusReply(p.Payload)
			if err != nil {
				return err
			}
			sr = decoded
			return nil
		},
	}, co)
	if err != nil {
		return nil, err
	}
	return sr, nil
}
