// Package streamer implements ElGA's Streamers: Participants that send
// graph updates to Agents (§3.1). A Streamer routes each change of the
// turnstile stream to the two agents owning its copies (the out-copy under
// the source, the in-copy under the destination), batching per
// destination and using acknowledged pushes so a Flush guarantees every
// change is durably held by an agent. A chunk of buffered copies is routed
// under one view: the streamer installs a newer one only when it has
// nothing buffered.
package streamer

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"elga/internal/config"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/route"
	"elga/internal/stats"
	"elga/internal/transport"
	"elga/internal/wire"
)

// DefaultBatchSize is the per-destination buffer flushed automatically.
const DefaultBatchSize = 1024

// Options configures a Streamer.
type Options struct {
	// Config is the shared cluster configuration.
	Config config.Config
	// Network is the transport.
	Network transport.Network
	// MasterAddr locates the DirectoryMaster.
	MasterAddr string
	// BatchSize overrides DefaultBatchSize when positive.
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

// Streamer injects edge changes into the cluster. It is not safe for
// concurrent use; run one Streamer per producing goroutine, exactly as
// ElGA runs independent streamer processes.
type Streamer struct {
	opts    Options
	node    *transport.Node
	router  *route.Router
	feed    *route.Feed
	dirAddr string
	// pending buckets buffered copies by their owner's position in the
	// router's Agents(); count is how many there are. Positions belong to
	// the installed view, so a view is installed only when count is 0.
	pending [][]wire.EdgeChange
	count   int
	// sent is atomic so metric scrapes can read it mid-ingest.
	sent atomic.Uint64
}

// Start boots a streamer: it discovers directories, subscribes to view
// updates, and waits for a first view.
func Start(opts Options) (*Streamer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	node, err := transport.NewNode(opts.Network, "", 0)
	if err != nil {
		return nil, err
	}
	s := &Streamer{
		opts:   opts,
		node:   node,
		router: route.New(opts.Config),
	}
	s.feed = route.NewFeed(node, s.router, s.reroute)
	if opts.Metrics != nil {
		node.RegisterMetrics(opts.Metrics, "streamer")
		opts.Metrics.CounterFunc("elga_streamer_sent_total", "Edge-change copies flushed to agents.",
			metrics.Labels{"addr": node.Addr()}, s.sent.Load)
	}
	reply, err := node.RequestRetry(opts.MasterAddr, transport.Retry{Attempts: 5},
		opts.Config.RequestTimeout,
		func() []byte { return node.NewFrame(wire.TGetDirectory) })
	if err != nil {
		node.Close()
		return nil, fmt.Errorf("streamer: bootstrap: %w", err)
	}
	dirs, err := wire.DecodeStringList(reply.Payload)
	wire.ReleasePacket(reply)
	if err != nil || len(dirs) == 0 {
		node.Close()
		return nil, fmt.Errorf("streamer: no directories")
	}
	s.dirAddr = dirs[0]
	// Acked subscription: a streamer that silently misses views would
	// route every future change against a stale membership.
	if _, err := node.SendFrameAcked(s.dirAddr, wire.AppendSubscribeTypes(
		node.NewFrame(wire.TSubscribe), wire.TDirUpdate)); err != nil {
		node.Close()
		return nil, err
	}
	return s, nil
}

// WaitReady blocks until the streamer has a view with at least one agent.
func (s *Streamer) WaitReady() error {
	deadline := time.Now().Add(s.opts.Config.RequestTimeout)
	for s.router.NumAgents() == 0 {
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("streamer: no agents joined before timeout")
		}
		if err := s.feed.Install(wait); err != nil {
			return fmt.Errorf("streamer: waiting for a directory view: %w", err)
		}
	}
	return nil
}

// Send routes one change: the out-copy to EdgeOwner(src, dst) and the
// in-copy to EdgeOwner(dst, src). The first Send of a chunk installs the
// newest view.
func (s *Streamer) Send(c graph.Change) error {
	if err := s.install(); err != nil {
		return err
	}
	outOwner, ok1 := s.router.EdgeOwnerIndex(c.Src, c.Dst)
	inOwner, ok2 := s.router.EdgeOwnerIndex(c.Dst, c.Src)
	if !ok1 || !ok2 {
		return fmt.Errorf("streamer: no agents available")
	}
	s.enqueue(outOwner, wire.EdgeChange{Action: c.Action, Src: c.Src, Dst: c.Dst, Dir: graph.Out})
	s.enqueue(inOwner, wire.EdgeChange{Action: c.Action, Src: c.Src, Dst: c.Dst, Dir: graph.In})
	if s.count >= s.opts.BatchSize {
		return s.flushPending()
	}
	return nil
}

// SendBatch routes a whole batch.
func (s *Streamer) SendBatch(b graph.Batch) error {
	for _, c := range b {
		if err := s.Send(c); err != nil {
			return err
		}
	}
	return nil
}

// install installs the newest view unless copies are buffered: their
// buckets are positions under the installed one.
func (s *Streamer) install() error {
	if s.count > 0 {
		return nil
	}
	return s.feed.Install(0)
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
// for the next chunk.
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
				s.node.NewFrameHint(wire.TEdges, 32+32*len(changes)),
				&wire.EdgeBatch{Epoch: s.router.Epoch(), Changes: changes})
			if _, err := s.node.SendFrameAcked(addr, frame); err != nil {
				return err
			}
			s.sent.Add(uint64(len(changes)))
		}
		s.pending[at] = changes[:0]
		s.count -= len(changes)
	}
	return nil
}

// flushPoll is how often a Flush still waiting for acks installs the
// newest view, so that batches sent to an agent it dropped are re-routed
// instead of waiting out the retransmission budget.
const flushPoll = 50 * time.Millisecond

// Flush pushes all buffered changes and blocks until every send is
// acknowledged — i.e. every change is held (applied or buffered) by the
// owning agent. It then lets go of the buckets, so a bulk load leaves
// nothing behind.
func (s *Streamer) Flush() error {
	deadline := time.Now().Add(s.opts.Config.RequestTimeout)
	for {
		if err := s.flushPending(); err != nil {
			return err
		}
		wait := min(flushPoll, time.Until(deadline))
		if wait <= 0 {
			return fmt.Errorf("streamer: flush: %w", transport.ErrFlushTimeout)
		}
		err := s.node.Flush(wait)
		if !errors.Is(err, transport.ErrFlushTimeout) {
			if err == nil {
				s.pending = nil
			}
			return err
		}
		if err := s.install(); err != nil {
			return err
		}
	}
}

// reroute takes over a batch sent to an agent the newest view dropped
// before it acknowledged the batch: its changes are routed again under that
// view and go out with the next flush. Inserts and deletes are idempotent,
// so a batch the agent did apply before leaving costs nothing twice.
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

// Epoch applies any queued views, unless changes are buffered, and returns
// the epoch of the one the streamer now routes by. Like Send, not for use
// concurrently with ingest.
func (s *Streamer) Epoch() uint64 {
	_ = s.install()
	return s.router.Epoch()
}

// Sent returns the number of edge-change copies flushed so far.
func (s *Streamer) Sent() uint64 { return s.sent.Load() }

// StatsMap implements stats.Provider; safe concurrently with ingest.
func (s *Streamer) StatsMap() stats.Counters {
	ts := s.node.Stats()
	return stats.Counters{
		"sent":        s.sent.Load(),
		"frames_in":   ts.FramesIn,
		"frames_out":  ts.FramesOut,
		"retransmits": ts.Retransmits,
		"peers":       ts.Peers,
	}
}

// Close flushes, unsubscribes from directory broadcasts, and releases the
// streamer.
func (s *Streamer) Close() error {
	err := s.Flush()
	_ = s.node.SendFrame(s.dirAddr, s.node.NewFrame(wire.TUnsubscribe))
	s.node.Close()
	return err
}
