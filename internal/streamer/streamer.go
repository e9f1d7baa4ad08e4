// Package streamer implements ElGA's Streamers: Participants that send
// graph updates to Agents (§3.1). A Streamer routes each change of the
// turnstile stream to the two agents owning its copies (the out-copy under
// the source, the in-copy under the destination), buffering the copies in
// one bucket per destination and sending every bucket once BatchSize copies
// are buffered across all of them, over acknowledged pushes so a Flush
// guarantees every change is durably held by an agent. A chunk of buffered
// copies is routed under one view: the streamer installs a newer one only
// when it has nothing buffered.
package streamer

import (
	"fmt"
	"sync/atomic"

	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/route"
	"elga/internal/transport"
	"elga/internal/wire"
)

// DefaultBatchSize is how many edge copies the streamer buffers, summed over
// every destination, before it sends all its buckets: a frame carries about
// DefaultBatchSize / agents copies (256 at 4 agents), not DefaultBatchSize.
const DefaultBatchSize = 1024

// Options configures a Streamer.
type Options struct {
	// Config is the shared cluster configuration.
	Config config.Config
	// Network is the transport.
	Network transport.Network
	// MasterAddr locates the DirectoryMaster.
	MasterAddr string
	// BatchSize overrides DefaultBatchSize when positive: the buffered
	// copies, over all destinations, that send every bucket.
	BatchSize int
	// Metrics, when non-nil, registers the streamer's change counter and
	// transport stats for the /metrics endpoint.
	Metrics *metrics.Registry
}

// Validate reports option errors before any resource is allocated.
func (o *Options) Validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Network == nil {
		return fmt.Errorf("streamer: options: network is required")
	}
	if o.MasterAddr == "" {
		return fmt.Errorf("streamer: options: master address is required")
	}
	return nil
}

// Streamer injects edge changes into the cluster. Like every participant
// it is one event loop: New assembles it over a transport.Endpoint, and
// Handle takes its packets — the discovery, view broadcasts and its
// deadline ticks (transport.Subscriber), and the acks of its batches.
// Start runs it over a Node. It is not safe for concurrent use; run one
// Streamer per producing goroutine, exactly as ElGA runs independent
// streamer processes.
type Streamer struct {
	opts   Options
	ep     transport.Endpoint
	sub    *transport.Subscriber
	router *route.Router
	// pending buckets buffered copies by their owner's position in the
	// router's Agents(); count is how many there are. Positions belong to
	// the installed view, so a view is installed (Subscriber.Install) only
	// when count is 0.
	pending [][]wire.EdgeChange
	count   int
	// sent is atomic so metric scrapes can read it mid-ingest.
	sent atomic.Uint64
}

// Start boots a streamer over a new node: its loop discovers the
// directories and subscribes to view updates, and Start returns once it
// has subscribed.
func Start(opts Options) (*Streamer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	node, err := transport.NewNode(opts.Network, "", 0)
	if err != nil {
		return nil, err
	}
	s := New(opts, node)
	node.RegisterMetrics(opts.Metrics, "streamer")
	if opts.Metrics != nil {
		opts.Metrics.CounterFunc("elga_streamer_sent_total", "Edge-change copies flushed to agents.",
			metrics.Labels{"addr": node.Addr()}, s.sent.Load)
	}
	if err := s.sub.Start(node); err != nil {
		return nil, fmt.Errorf("streamer: bootstrap: %w", err)
	}
	return s, nil
}

// New assembles a streamer over ep, whose packets go to Handle, TAcks
// included, and starts nothing.
func New(opts Options, ep transport.Endpoint) *Streamer {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	s := &Streamer{opts: opts, ep: ep, router: route.New(opts.Config)}
	s.sub = transport.NewSubscriber(ep, transport.SubscriberConfig{
		Master:  opts.MasterAddr,
		Timeout: opts.Config.RequestTimeout,
		View:    s.install,
	})
	return s
}

// Boot starts the discovery Handle runs (transport.Subscriber.Boot).
func (s *Streamer) Boot() *transport.Boot { return s.sub.Boot() }

// Handle takes one packet (transport.Subscriber.Handle) and reports
// whether the streamer kept it. An ack may be the last a Flush waits for.
func (s *Streamer) Handle(pkt *wire.Packet) (retained bool) { return s.sub.Handle(pkt) }

// install installs v, the newest view, with nothing buffered, and sends at
// once the batches it gives back: those its departed agents left
// unacknowledged.
func (s *Streamer) install(v *wire.View) error {
	if err := s.router.Install(v, s.ep, s.reroute); err != nil || s.count == 0 {
		return err
	}
	return s.flushPending()
}

// WaitReady blocks until the streamer routes by a view with at least one
// agent.
func (s *Streamer) WaitReady() error {
	return s.sub.Do(transport.Op{
		Name:    "wait-ready",
		Ready:   func() bool { return s.router.NumAgents() > 0 },
		Expired: fmt.Errorf("streamer: no agents joined before timeout: %w", transport.ErrTimeout),
	})
}

// Send routes one change: the out-copy to EdgeOwner(src, dst) and the
// in-copy to EdgeOwner(dst, src).
func (s *Streamer) Send(c graph.Change) error { return s.SendBatch(graph.Batch{c}) }

// SendBatch routes a whole batch. It lets go of the lock Handle takes
// between chunks, so Handle keeps taking acks off the inbox while a long
// batch goes out.
func (s *Streamer) SendBatch(b graph.Batch) error {
	s.sub.Lock()
	defer s.sub.Unlock()
	if s.count == 0 {
		if err := s.sub.Install(); err != nil {
			return err
		}
	}
	for i, c := range b {
		if i%s.opts.BatchSize == s.opts.BatchSize-1 {
			s.sub.Unlock()
			s.sub.Lock()
		}
		outOwner, ok1 := s.router.EdgeOwnerIndex(c.Src, c.Dst)
		inOwner, ok2 := s.router.EdgeOwnerIndex(c.Dst, c.Src)
		if !ok1 || !ok2 {
			return fmt.Errorf("streamer: no agents available")
		}
		s.enqueue(outOwner, wire.EdgeChange{Action: c.Action, Src: c.Src, Dst: c.Dst, Dir: graph.Out})
		s.enqueue(inOwner, wire.EdgeChange{Action: c.Action, Src: c.Src, Dst: c.Dst, Dir: graph.In})
		if s.count >= s.opts.BatchSize {
			if err := s.flushPending(); err != nil {
				return err
			}
		}
	}
	return nil
}

// enqueue buffers c for the member at position owner in Agents().
func (s *Streamer) enqueue(owner int, c wire.EdgeChange) {
	for len(s.pending) <= owner {
		s.pending = append(s.pending, nil)
	}
	s.pending[owner] = append(s.pending[owner], c)
	s.count++
}

// flushPending sends each bucket to its member, keeping the buckets' memory
// for the next chunk, then installs the view kept meanwhile, if any.
func (s *Streamer) flushPending() error {
	members := s.router.Agents()
	for at, changes := range s.pending {
		if len(changes) == 0 {
			continue
		}
		if addr, ok := s.router.AddrOf(members[at]); ok {
			// Single-copy: encode straight into a pooled frame the per-peer
			// writer recycles after the wire write.
			frame := wire.AppendEdgeBatch(
				s.ep.NewFrameHint(wire.TEdges, 32+32*len(changes)),
				&wire.EdgeBatch{Epoch: s.router.Epoch(), Changes: changes})
			if _, err := s.ep.SendFrameAcked(addr, frame); err != nil {
				return err
			}
			s.sent.Add(uint64(len(changes)))
		}
		s.pending[at] = changes[:0]
		s.count -= len(changes)
	}
	return s.sub.Install()
}

// Flush pushes all buffered changes and blocks until every send is
// acknowledged — i.e. every change is held (applied or buffered) by the
// owning agent.
func (s *Streamer) Flush() error {
	s.sub.Lock()
	err := s.flushPending()
	s.sub.Unlock()
	if err != nil {
		return err
	}
	// Every change has left and been acknowledged; then the buckets go, so
	// a bulk load leaves nothing behind.
	flushed := func() bool {
		if s.count > 0 || s.ep.Stats().OutstandingAcks > 0 {
			return false
		}
		s.pending = nil
		return true
	}
	return s.sub.Do(transport.Op{
		Name:    "flush",
		Ready:   flushed,
		Expired: fmt.Errorf("streamer: flush: sends unacknowledged: %w", transport.ErrTimeout),
	})
}

// reroute takes over a batch sent to an agent the newest view dropped
// before it acknowledged the batch: its changes are routed again under that
// view. Inserts and deletes are idempotent, so a batch the agent did apply
// before leaving costs nothing twice.
func (s *Streamer) reroute(f transport.FailedSend) {
	var pkt wire.Packet
	var b wire.EdgeBatch
	if wire.UnmarshalPacketInto(&pkt, f.Frame, nil) == nil && pkt.Type == wire.TEdges &&
		wire.DecodeEdgeBatchInto(&b, pkt.Payload) == nil {
		for _, c := range b.Changes {
			u, other := c.Src, c.Dst
			if c.Dir == graph.In {
				u, other = c.Dst, c.Src
			}
			if owner, ok := s.router.EdgeOwnerIndex(u, other); ok {
				s.enqueue(owner, c)
			}
		}
	}
	wire.ReleaseFrame(f.Frame)
}

// Epoch installs the newest view, unless changes are buffered, and returns
// the epoch of the one the streamer routes by.
func (s *Streamer) Epoch() uint64 {
	s.sub.Lock()
	defer s.sub.Unlock()
	if s.count == 0 {
		_ = s.sub.Install()
	}
	return s.router.Epoch()
}

// Sent returns the number of edge-change copies flushed so far.
func (s *Streamer) Sent() uint64 { return s.sent.Load() }

// TransportStats returns the streamer endpoint's transport counters.
func (s *Streamer) TransportStats() transport.Stats { return s.ep.Stats() }

// Close flushes, unsubscribes from directory broadcasts, and releases the
// streamer.
func (s *Streamer) Close() error {
	err := s.Flush()
	s.sub.Close()
	return err
}
