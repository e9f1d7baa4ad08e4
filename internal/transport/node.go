package transport

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elga/internal/metrics"
	"elga/internal/trace"
	"elga/internal/wire"
)

// peerQueueDepth bounds the frames one peer holds — queued or in its
// writer's hands. It is the PUSH pattern's buffer that lets entities
// "continue executing while the transport finishes sending" (§3.5), and like
// ZeroMQ's high-water mark a limit, not an allocation: a peer holds storage
// only for its backlog.
const peerQueueDepth = 8192

// maxCoalesce bounds how many queued frames one conn write may carry. The
// writer takes the whole queue per wakeup and hands it to the conn this many
// frames per vectored write, so a scatter burst costs a syscall per
// maxCoalesce frames instead of one per frame. It is also the largest queue
// array a peer keeps for reuse once the queue has drained.
const maxCoalesce = 64

// frameSizeHint pre-sizes frames created without an explicit payload
// hint; control frames fit the smallest pool class.
const frameSizeHint = 256

// TickPeriod paces the protocol clock (Proto.Tick) of a Node and of a
// simulator's endpoint alike, so a lazy ack waits at most this long for a
// frame to ride: a quarter of ackRTO, never a resend.
const TickPeriod = 50 * time.Millisecond

// Node is one Participant's communication endpoint: a listen address, an
// inbox of inbound packets, per-peer outbound queues with dedicated writer
// goroutines and request/reply correlation — the I/O shell around Proto,
// which makes the acknowledgement protocol's decisions.
//
// A Node is shared-nothing friendly: exactly one goroutine (the entity's
// event loop) is expected to consume Inbox and issue sends, while the
// node's internal goroutines only move bytes. A send to an idle peer is
// written by the sender itself when the conn can take it without waiting
// (see peer); every other frame crosses the peer's queue.
//
// The send path is single-copy and pooled: NewFrame returns a pooled
// buffer pre-filled with the frame header, callers append the payload in
// place (wire.AppendX), and SendFrame hands the buffer to the per-peer
// writer, which recycles it after the conn write. Inbound packets are
// pooled too: consumers call wire.ReleasePacket when done with a packet
// taken from Inbox (or returned by Request). Forgetting to release only
// costs GC; releasing a packet that is still referenced is a bug.
type Node struct {
	net      Network
	listener Listener
	addr     string
	inbox    chan *wire.Packet
	done     chan struct{}

	mu       sync.Mutex
	peers    map[string]*peer
	pending  map[uint32]chan *wire.Packet
	accepted map[Conn]struct{}
	closed   bool

	// protoMu guards proto and is never held across anything else: it is
	// the innermost lock.
	protoMu sync.Mutex
	proto   Proto

	// injectMu fences Inject against the inbox close: Inject runs from
	// timer goroutines the wg doesn't track, so Close must exclude it
	// explicitly before closing the inbox channel.
	injectMu sync.RWMutex

	// stats is allocated apart from the node and is all a metric registry's
	// closures capture: a registry that outlives the node keeps its final
	// counters, not its inbox, queues and connections.
	stats *nodeStats

	// Optional histograms installed by RegisterMetrics. atomic.Pointer so
	// the writers observe without a lock and uninstrumented nodes pay one
	// nil-check per seam. A Subscriber running over the node observes rttHist.
	rttHist      atomic.Pointer[metrics.Histogram]
	coalesceHist atomic.Pointer[metrics.Histogram]

	wg sync.WaitGroup
}

// peer is one destination: a queue and the writer goroutine that drains it
// onto a conn it dials on first use. mu orders the senders and the writer:
// while nothing is pending the writer is idle and a sender holding mu may
// write to the conn itself, so per-peer order is the order of the sends.
type peer struct {
	addr string
	// wake holds a token once the writer has something to do it may not
	// have seen: frames queued, or the peer cancelled.
	wake chan struct{}

	mu sync.Mutex
	// room wakes senders waiting for pending to drop below peerQueueDepth,
	// or for the peer to be cancelled.
	room sync.Cond
	// queue is what the writer has yet to take, oldest first. The writer
	// takes it whole, so it holds storage only for a backlog.
	queue [][]byte
	// pending counts frames queued or in the writer's hands: the bound a
	// stall is judged against. At zero the queue is empty and the writer
	// idle.
	pending int
	// cancelled is set by CancelPeer and Close: no frame is queued after
	// it, and the writer exits once it has written what was.
	cancelled bool
	// direct is the writer's conn while it is dialled, healthy and able to
	// send without waiting (TryConn); nil otherwise.
	direct TryConn
	// batch is the direct write's scratch.
	batch [][]byte
}

// cancel marks p cancelled and wakes its writer and every sender waiting
// for room. p.mu held.
func (p *peer) cancel() {
	p.cancelled = true
	p.room.Broadcast()
	signal(p.wake)
}

// nodeStats holds the node's transport counters, updated lock-free from
// the read and write goroutines.
type nodeStats struct {
	framesIn    atomic.Uint64
	framesOut   atomic.Uint64
	malformed   atomic.Uint64
	stalls      atomic.Uint64
	writes      atomic.Uint64
	reads       atomic.Uint64
	coalesced   atomic.Uint64
	retransmits atomic.Uint64
	dupsDropped atomic.Uint64
	ackGiveUps  atomic.Uint64
	// live is the node while it is open. Gauges and timers reach it
	// through here, so neither keeps a closed node's memory alive.
	live atomic.Pointer[Node]
}

// Stats is a point-in-time snapshot of a node's transport counters.
type Stats struct {
	// FramesIn counts well-formed inbound frames.
	FramesIn uint64
	// FramesOut counts frames handed to a conn write (including writes
	// that subsequently failed).
	FramesOut uint64
	// MalformedFrames counts inbound frames the unmarshaller rejected
	// and dropped.
	MalformedFrames uint64
	// EnqueueStalls counts sends that found peerQueueDepth frames queued
	// or in the writer's hands and had to block — backpressure from a peer
	// draining slower than the entity produces.
	EnqueueStalls uint64
	// ConnWrites counts conn write calls; a coalesced batch counts once.
	ConnWrites uint64
	// ConnReads counts conn reads; over TCP a burst of frames that one
	// socket read returned counts once, in-proc every frame is a read.
	ConnReads uint64
	// CoalescedFrames counts frames that shared a conn write with at
	// least one other frame.
	CoalescedFrames uint64
	// Retransmits counts acked sends resent after an RTO expiry.
	Retransmits uint64
	// DuplicatesDropped counts inbound acked pushes recognized as
	// already-delivered and dropped (after re-acking).
	DuplicatesDropped uint64
	// AckGiveUps counts acked sends abandoned after ackMaxResend
	// retransmissions — permanent loss toward an unresponsive peer.
	AckGiveUps uint64
	// Peers is a gauge, not a counter: the destinations the node keeps a
	// queue, a writer and a conn for. CancelPeer and Close retire them.
	Peers uint64
	// InboxDepth, QueueDepth and OutstandingAcks are gauges too: the
	// inbound packets waiting for the entity, the frames queued or in a
	// writer's hands over every peer (the bound a stall is judged against,
	// the send-side backpressure the autoscaler watches), and the acked
	// sends not yet confirmed.
	InboxDepth      uint64
	QueueDepth      uint64
	OutstandingAcks uint64
}

// Stats returns a snapshot of the node's transport counters and gauges.
func (n *Node) Stats() Stats {
	peers, queued := n.queueDepth()
	n.protoMu.Lock()
	s := n.proto.Stats()
	n.protoMu.Unlock()
	s.Peers = uint64(peers)
	s.InboxDepth = uint64(len(n.inbox))
	s.QueueDepth = uint64(queued)
	s.FramesIn = n.stats.framesIn.Load()
	s.FramesOut = n.stats.framesOut.Load()
	s.MalformedFrames = n.stats.malformed.Load()
	s.EnqueueStalls = n.stats.stalls.Load()
	s.ConnWrites = n.stats.writes.Load()
	s.ConnReads = n.stats.reads.Load()
	s.CoalescedFrames = n.stats.coalesced.Load()
	return s
}

// queueDepth returns the peer count and the frames queued or in the
// writers' hands over every peer.
func (n *Node) queueDepth() (peers, depth int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		p.mu.Lock()
		depth += p.pending
		p.mu.Unlock()
	}
	return len(n.peers), depth
}

// RegisterMetrics exposes this node's transport counters, queue depths,
// and latency histograms on reg under {role, addr} labels. The counters
// are read at scrape time from the same atomics Stats() snapshots, so
// the hot paths gain nothing; the two histograms (REQ/REP round trip,
// coalesce batch size) are role-shared handles installed behind atomic
// pointers. Call at most once per node, before traffic starts.
func (n *Node) RegisterMetrics(reg *metrics.Registry, role string) {
	if reg == nil {
		return
	}
	lbl := metrics.Labels{"role": role, "addr": n.addr}
	reg.CounterFunc("elga_transport_frames_in_total", "Well-formed inbound frames.", lbl, n.stats.framesIn.Load)
	reg.CounterFunc("elga_transport_frames_out_total", "Frames handed to conn writes.", lbl, n.stats.framesOut.Load)
	reg.CounterFunc("elga_transport_malformed_total", "Inbound frames dropped as malformed.", lbl, n.stats.malformed.Load)
	reg.CounterFunc("elga_transport_enqueue_stalls_total", "Sends that blocked on a saturated peer queue.", lbl, n.stats.stalls.Load)
	reg.CounterFunc("elga_transport_conn_writes_total", "Conn write calls (a coalesced batch counts once).", lbl, n.stats.writes.Load)
	reg.CounterFunc("elga_transport_conn_reads_total", "Conn reads (a burst of frames in one socket read counts once).", lbl, n.stats.reads.Load)
	reg.CounterFunc("elga_transport_coalesced_frames_total", "Frames that shared a conn write with another frame.", lbl, n.stats.coalesced.Load)
	reg.CounterFunc("elga_transport_retransmits_total", "Acked sends resent after an RTO expiry.", lbl, n.stats.retransmits.Load)
	reg.CounterFunc("elga_transport_dups_dropped_total", "Duplicate acked pushes dropped after re-acking.", lbl, n.stats.dupsDropped.Load)
	reg.CounterFunc("elga_transport_ack_give_ups_total", "Acked sends abandoned after the retransmission budget.", lbl, n.stats.ackGiveUps.Load)
	// The gauges reach the node through the stats block, until Close.
	st := n.stats
	depth := func(of func(*Node) int) func() float64 {
		return func() float64 {
			if n := st.live.Load(); n != nil {
				return float64(of(n))
			}
			return 0
		}
	}
	reg.GaugeFunc("elga_inbox_depth", "Inbound packet queue occupancy.", lbl,
		depth(func(n *Node) int { return len(n.inbox) }))
	reg.GaugeFunc("elga_send_queue_depth", "Frames queued or being written by per-peer writers.", lbl,
		depth(func(n *Node) int { _, d := n.queueDepth(); return d }))
	// Shared per role: registry dedup returns one handle to every node of
	// the role, aggregating their observations (cardinality stays low).
	n.rttHist.Store(reg.Histogram("elga_reqrep_roundtrip_seconds",
		"REQ/REP round-trip latency.", metrics.Labels{"role": role}, metrics.DurationBuckets))
	n.coalesceHist.Store(reg.Histogram("elga_transport_coalesce_batch_frames",
		"Frames per coalesced conn write.", metrics.Labels{"role": role}, metrics.SizeBuckets))
}

// NewNode listens on addr ("" auto-allocates) and starts the accept loop.
// inboxDepth bounds the inbound packet queue; 0 selects a default.
func NewNode(network Network, addr string, inboxDepth int) (*Node, error) {
	if inboxDepth <= 0 {
		inboxDepth = 16384
	}
	l, err := network.Listen(addr)
	if err != nil {
		return nil, err
	}
	p := NewProto(l.Addr())
	n := &Node{
		net:      network,
		listener: l,
		addr:     l.Addr(),
		inbox:    make(chan *wire.Packet, inboxDepth),
		done:     make(chan struct{}),
		peers:    make(map[string]*peer),
		pending:  make(map[uint32]chan *wire.Packet),
		accepted: make(map[Conn]struct{}),
		proto:    p,
		stats:    p.stats,
	}
	n.stats.live.Store(n)
	n.wg.Add(2)
	go n.acceptLoop()
	go n.clock()
	return n, nil
}

// Addr returns the dialable listen address.
func (n *Node) Addr() string { return n.addr }

// Now reads the wall clock: a node's participant lives in real time.
func (n *Node) Now() time.Time { return time.Now() }

// Inbox returns the inbound packet stream. Replies to Request and
// duplicates are consumed internally and never appear here; the TAck that
// completes an acked send does. Consumers release each packet with
// wire.ReleasePacket once they no longer reference it or its Payload.
func (n *Node) Inbox() <-chan *wire.Packet { return n.inbox }

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.accepted[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

func (n *Node) readLoop(c Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.accepted, c)
		n.mu.Unlock()
	}()
	// One conn carries one peer's traffic, so the sender address repeats
	// on every frame; interning makes steady-state decode allocation-free.
	var intern wire.FromInterner
	// A conn that buffers its reads counts them itself; elsewhere a frame
	// is a read.
	counts, buffered := c.(interface{ countReads(*atomic.Uint64) })
	if buffered {
		counts.countReads(&n.stats.reads)
	}
	for {
		frame, err := c.Recv()
		if err != nil {
			return
		}
		if !buffered {
			n.stats.reads.Add(1)
		}
		pkt := wire.GetPacket()
		if err := wire.UnmarshalPacketInto(pkt, frame, &intern); err != nil {
			// Drop malformed frames, as a router would — but count them.
			n.stats.malformed.Add(1)
			wire.ReleasePacket(pkt) // reclaims frame too
			continue
		}
		n.stats.framesIn.Add(1)
		n.dispatch(pkt)
	}
}

func (n *Node) dispatch(pkt *wire.Packet) {
	n.protoMu.Lock()
	v, reack := n.proto.FrameIn(pkt)
	n.protoMu.Unlock()
	if reack != nil {
		_ = n.push(pkt.From, true, reack)
	}
	switch v {
	case InDrop:
		wire.ReleasePacket(pkt)
		return
	case InReply:
		n.mu.Lock()
		ch, ok := n.pending[pkt.Req]
		delete(n.pending, pkt.Req)
		n.mu.Unlock()
		if ok {
			ch <- pkt
			return
		}
	}
	n.deliver(pkt)
}

// deliver puts pkt in the inbox, or releases it and reports false once the
// node closes, so a full inbox wedges no reader, clock or Inject at Close.
func (n *Node) deliver(pkt *wire.Packet) bool {
	select {
	case n.inbox <- pkt:
		return true
	case <-n.done:
		wire.ReleasePacket(pkt)
		return false
	}
}

func (n *Node) getPeer(addr string) (*peer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNodeClosed
	}
	if p, ok := n.peers[addr]; ok {
		return p, nil
	}
	p := &peer{addr: addr, wake: make(chan struct{}, 1)}
	p.room.L = &p.mu
	n.peers[addr] = p
	n.wg.Add(1)
	go n.writeLoop(p)
	return p, nil
}

// clock drives the protocol's time: every TickPeriod it ticks the protocol
// and carries out what the tick decided — resends and parked acks written
// without waiting for room, TAcks for sends given up delivered.
func (n *Node) clock() {
	defer n.wg.Done()
	t := time.NewTicker(TickPeriod)
	defer t.Stop()
	var out TickOut
	var group [][]byte
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
		}
		n.protoMu.Lock()
		n.proto.Tick(time.Now(), &out)
		n.protoMu.Unlock()
		// One push per address; a full queue drops it, and the RTO brings
		// its sends back.
		for i, w := range out.Writes {
			group = append(group, w.Frame)
			if i+1 == len(out.Writes) || out.Writes[i+1].Addr != w.Addr {
				_ = n.push(w.Addr, false, group...)
				group = group[:0]
			}
		}
		for _, pkt := range out.Deliver {
			n.deliver(pkt)
		}
	}
}

// FailedSend is one acked send reclaimed by CancelPeer: the request ID
// the caller's bookkeeping knows it by, plus the full retained wire frame
// (header included — re-parse with wire.UnmarshalPacket). Ownership of
// Frame transfers to the caller, who must eventually ReleaseFrame it.
type FailedSend struct {
	Req   uint32
	Frame []byte
}

// CancelPeer retires addr's queue, writer and conn and reclaims every
// unacknowledged acked send destined for it. Entities call it when a
// membership view declares a peer dead or gone: the returned frames carry
// the in-flight data so the caller can re-route it under the new view
// instead of losing it. What was queued before the call is still written,
// dialling once if the writer has no conn yet, so a reply sent just before
// is not lost. Acks arriving later from the peer are ignored; a later send
// to addr starts a new peer.
func (n *Node) CancelPeer(addr string) []FailedSend {
	n.mu.Lock()
	p, ok := n.peers[addr]
	delete(n.peers, addr)
	n.mu.Unlock()
	if ok {
		p.mu.Lock()
		p.cancel()
		p.mu.Unlock()
	}
	n.protoMu.Lock()
	failed := n.proto.Cancel(addr)
	n.protoMu.Unlock()
	return failed
}

func (n *Node) writeLoop(p *peer) {
	defer n.wg.Done()
	var c Conn
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	// out is one conn write: up to maxCoalesce queued frames and the acks
	// that ride them. spare is the queue array taken last time, handed back
	// to the senders unless a burst grew it.
	out := make([][]byte, 0, 2*maxCoalesce)
	var spare [][]byte
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.cancelled {
			p.mu.Unlock()
			<-p.wake
			p.mu.Lock()
		}
		taken := p.queue
		p.queue = spare
		last := p.cancelled
		if last {
			p.direct = nil // from here on every write is this goroutine's
		}
		p.mu.Unlock()
		c = n.writeQueued(c, p, taken, out, last)
		spare = nil
		if cap(taken) <= maxCoalesce {
			spare = taken[:0]
		}
		if last {
			// Acks still parked leave too: their sender would retransmit to
			// a node that has gone.
			if c != nil {
				_ = n.writeBatch(c, n.appendAcks(p.addr, out[:0]))
			}
			return
		}
	}
}

// dialPeer connects to p. A live peer is redialled for a while — elastic
// churn means a peer may be observed before its listener is up; a cancelled
// one gets one attempt, for what was queued before the cancel; a closing
// node dials nothing.
func (n *Node) dialPeer(p *peer, once bool) Conn {
	for attempt := 0; ; attempt++ {
		select {
		case <-n.done:
			return nil
		default:
		}
		c, err := n.net.Dial(p.addr)
		if err == nil {
			return c
		}
		if once || attempt >= 50 {
			return nil
		}
		select {
		case <-n.done:
			return nil
		case <-time.After(time.Duration(attempt+1) * time.Millisecond):
		}
		p.mu.Lock()
		once = p.cancelled
		p.mu.Unlock()
	}
}

// writeQueued writes frames taken from p's queue on c, dialling first if
// there is no conn, maxCoalesce frames a conn write with the acks parked on
// p riding each, and returns the conn — nil after a failure, so the next
// batch redials. A frame that cannot be written is dropped; acked sends
// surface the loss. Each write's frames stop being pending once it returns,
// which wakes senders waiting for room; until then no sender writes to c.
func (n *Node) writeQueued(c Conn, p *peer, taken, out [][]byte, last bool) Conn {
	if c == nil && len(taken) > 0 {
		c = n.dialPeer(p, last)
	}
	for len(taken) > 0 {
		k := min(len(taken), maxCoalesce)
		if c == nil {
			releaseFrames(taken[:k])
		} else {
			// Behind the queued frames: the first of those may finish a
			// write a sender began (TryConn).
			w := n.appendAcks(p.addr, append(out[:0], taken[:k]...))
			clear(taken[:k])
			if err := n.writeBatch(c, w); err != nil {
				c.Close()
				c = nil
			}
		}
		taken = taken[k:]
		p.mu.Lock()
		p.pending -= k
		p.direct = nil
		if !last {
			p.direct, _ = c.(TryConn)
		}
		p.room.Broadcast()
		p.mu.Unlock()
	}
	return c
}

// writeBatch is one conn write of frames, counted, and their release.
func (n *Node) writeBatch(c Conn, frames [][]byte) (err error) {
	if len(frames) == 0 {
		return nil
	}
	if bc, ok := c.(BatchConn); ok && len(frames) > 1 {
		err = bc.SendBatch(frames)
	} else {
		for _, f := range frames {
			if err = c.Send(f); err != nil {
				break
			}
		}
	}
	n.countWrite(len(frames))
	releaseFrames(frames)
	return err
}

// countWrite accounts one conn write that carried the given frames.
func (n *Node) countWrite(frames int) {
	if frames > 1 {
		n.stats.coalesced.Add(uint64(frames))
	}
	n.stats.writes.Add(1)
	n.stats.framesOut.Add(uint64(frames))
	n.coalesceHist.Load().Observe(float64(frames))
}

// releaseFrame recycles a frame the node is done with: every frame handed to
// the node to send, and every copy it makes, ends here exactly once.
var releaseFrame = wire.ReleaseFrame

func releaseFrames(frames [][]byte) {
	for i, f := range frames {
		releaseFrame(f)
		frames[i] = nil
	}
}

// push sends frames in order to addr's peer, made on first use: from the
// caller's goroutine if it is idle and its conn can take them without
// waiting, else through its queue. With peerQueueDepth frames pending it
// waits for room if wait is set, counting a stall, and otherwise drops the
// frames. Ownership of the frames transfers; on failure they are recycled.
func (n *Node) push(addr string, wait bool, frames ...[]byte) error {
	p, err := n.getPeer(addr)
	if err != nil {
		releaseFrames(frames)
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending >= peerQueueDepth && !p.cancelled {
		if !wait {
			releaseFrames(frames)
			return ErrUnavailable
		}
		n.stats.stalls.Add(1)
		for p.pending >= peerQueueDepth && !p.cancelled {
			p.room.Wait()
		}
	}
	if p.cancelled {
		releaseFrames(frames)
		return ErrPeerClosed
	}
	if p.pending == 0 {
		n.writeIdle(p, append(n.appendAcks(p.addr, p.batch[:0]), frames...))
		return nil
	}
	p.queue = append(p.queue, frames...)
	p.pending += len(frames)
	if len(p.queue) == len(frames) {
		signal(p.wake)
	}
	return nil
}

// writeIdle sends frames to a peer with nothing pending, p.mu held: written
// here if the conn can take them without waiting; handed to the writer if
// it is not dialled yet, may wait, or could not take them whole.
func (n *Node) writeIdle(p *peer, frames [][]byte) {
	if p.direct != nil && p.direct.TrySend(frames) {
		n.countWrite(len(frames))
		releaseFrames(frames)
	} else {
		p.queue = append(p.queue, frames...)
		p.pending += len(frames)
		clear(frames)
		signal(p.wake)
	}
	p.batch = frames[:0]
}

// appendAcks appends the acks parked for addr to frames (Proto.TakeAcks).
func (n *Node) appendAcks(addr string, frames [][]byte) [][]byte {
	n.protoMu.Lock()
	frames = n.proto.TakeAcks(addr, frames)
	n.protoMu.Unlock()
	return frames
}

// NewFrame returns a pooled buffer holding a frame header for typ from
// this node, ready for payload appends (wire.AppendX). Hand the finished
// frame to SendFrame and friends — they assume ownership — or discard it
// with wire.ReleaseFrame.
func (n *Node) NewFrame(typ wire.Type) []byte {
	return wire.AppendFrameHeader(wire.GetFrame(frameSizeHint), typ, 0, n.addr)
}

// NewFrameHint is NewFrame with an expected payload size, so large batch
// encodes land in the right pool class without growth copies.
func (n *Node) NewFrameHint(typ wire.Type, payloadHint int) []byte {
	hint := frameHeaderBytes + len(n.addr) + payloadHint
	return wire.AppendFrameHeader(wire.GetFrame(hint), typ, 0, n.addr)
}

// frameHeaderBytes mirrors wire's fixed header size for hint math.
const frameHeaderBytes = 11

// SendFrame is the PUSH pattern over the single-copy path: frame must
// have been started with NewFrame and had its payload appended in place.
// SendFrame patches the payload length and hands the buffer to the
// per-peer writer, which recycles it after the conn write. The caller
// must not reference frame after the call.
func (n *Node) SendFrame(addr string, frame []byte) error {
	if err := wire.FinishFrame(frame); err != nil {
		releaseFrame(frame)
		return err
	}
	return n.push(addr, true, frame)
}

// Send is the PUSH pattern: a non-blocking (buffered) one-way packet.
// The payload is copied into a pooled frame; callers that can append
// their payload directly should prefer NewFrame + SendFrame.
func (n *Node) Send(addr string, typ wire.Type, payload []byte) error {
	return n.SendFrame(addr, append(n.NewFrameHint(typ, len(payload)), payload...))
}

// Inject synthesizes a local packet straight into this node's inbox,
// bypassing the network. Timer ticks and other self-notifications are
// process internals, not traffic: routing them through the transport
// would cost a wire round trip and a peer queue to the node itself. Blocks
// if the inbox is full; fails only after Close.
func (n *Node) Inject(typ wire.Type, payload []byte) error {
	frame := append(n.NewFrameHint(typ, len(payload)), payload...)
	if err := wire.FinishFrame(frame); err != nil {
		releaseFrame(frame)
		return err
	}
	pkt := wire.GetPacket()
	if err := wire.UnmarshalPacketInto(pkt, frame, nil); err != nil {
		wire.ReleasePacket(pkt)
		return err
	}
	n.injectMu.RLock()
	defer n.injectMu.RUnlock()
	select {
	case <-n.done:
		// done closes before the inbox does; bail here so the send arm
		// below can never race Close's close(n.inbox).
		wire.ReleasePacket(pkt)
		return ErrNodeClosed
	default:
	}
	if !n.deliver(pkt) {
		return ErrNodeClosed
	}
	return nil
}

// After injects a TTick carrying tag once d has passed: the one timer an
// entity's event loop arms. Injected, never sent, a tick cannot be lost on
// the way (a lost one would end its chain for good); a chain re-arms from
// the loop that handles each tick and dies with the node: a closed node
// takes no tick, and a pending one does not keep it in memory.
func (n *Node) After(d time.Duration, tag []byte) {
	live := &n.stats.live
	time.AfterFunc(d, func() {
		if n := live.Load(); n != nil {
			_ = n.Inject(wire.TTick, tag)
		}
	})
}

// SendFrameAcked is the acked-PUSH pattern ("a second PUSH is then sent
// in return", §3.5) over the single-copy path: the frame carries a request
// ID the receiver must Ack after *processing* it, and SendFrameAcked
// returns it so callers can correlate the eventual TAck, which reaches the
// inbox, to this send.
func (n *Node) SendFrameAcked(addr string, frame []byte) (uint32, error) {
	now := time.Now()
	n.protoMu.Lock()
	req, err := n.proto.Send(addr, frame, now)
	n.protoMu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := n.push(addr, true, frame); err != nil {
		n.protoMu.Lock()
		n.proto.Complete(req) // unless CancelPeer took it first
		n.protoMu.Unlock()
		return 0, err
	}
	return req, nil
}

// Ack acknowledges a processed packet back to its sender: at once, or if the
// sender does not wait on it (wire.LazyAck) in the next write to the sender
// or with the clock's next tick, whichever comes first.
func (n *Node) Ack(pkt *wire.Packet) {
	n.protoMu.Lock()
	frame := n.proto.Ack(pkt)
	n.protoMu.Unlock()
	if frame != nil {
		_ = n.push(pkt.From, true, frame)
	}
}

// Request is the REQ/REP pattern: send and block up to timeout for the
// correlated reply. The reply packet is pooled; callers release it with
// wire.ReleasePacket when done.
func (n *Node) Request(addr string, typ wire.Type, payload []byte, timeout time.Duration) (*wire.Packet, error) {
	frame := append(n.NewFrameHint(typ, len(payload)), payload...)
	n.protoMu.Lock()
	req := n.proto.NewReq()
	n.protoMu.Unlock()
	wire.PatchFrameReq(frame, req)
	if err := wire.FinishFrame(frame); err != nil {
		releaseFrame(frame)
		return nil, err
	}
	ch := make(chan *wire.Packet, 1)
	n.mu.Lock()
	n.pending[req] = ch
	n.mu.Unlock()
	// A closed node fails the enqueue (ErrNodeClosed).
	err := n.push(addr, true, frame)
	if err == nil {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case reply := <-ch:
			return reply, nil
		case <-t.C:
			err = fmt.Errorf("transport: request %s to %s: %w", typ, addr, ErrTimeout)
		}
	}
	n.mu.Lock()
	delete(n.pending, req)
	n.mu.Unlock()
	return nil, err
}

// ReplyFrame answers a request packet over the single-copy path, echoing
// its request ID into the prepared frame.
func (n *Node) ReplyFrame(reqPkt *wire.Packet, frame []byte) error {
	wire.PatchFrameReq(frame, reqPkt.Req)
	return n.SendFrame(reqPkt.From, frame)
}

// Reply answers a request packet, echoing its request ID.
func (n *Node) Reply(reqPkt *wire.Packet, typ wire.Type, payload []byte) error {
	return n.ReplyFrame(reqPkt, append(n.NewFrameHint(typ, len(payload)), payload...))
}

// Close stops the node. Outbound queues are drained best-effort; inbound
// packets already buffered remain readable from the (then-closed) inbox.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.stats.live.Store(nil)
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	conns := make([]Conn, 0, len(n.accepted))
	for c := range n.accepted {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	// Unblock readLoops parked on a full inbox before waiting for them.
	close(n.done)
	n.listener.Close()
	for _, p := range peers {
		p.mu.Lock()
		p.cancel()
		p.mu.Unlock()
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	n.protoMu.Lock()
	n.proto.Close()
	n.protoMu.Unlock()
	n.injectMu.Lock()
	close(n.inbox)
	n.injectMu.Unlock()
}

// Publisher implements the PUB/SUB pattern with publisher-side filtering
// on the packet type — the 1-byte subscription filter of §3.5. Its owner,
// a directory, uses it from its one event loop, so it takes no lock.
type Publisher struct {
	ep Endpoint
	// subs is sorted by address, so a publish fans out in the same order
	// every time.
	subs []subscriber
}

// subscriber is one address and its filter; nil types means all.
type subscriber struct {
	addr  string
	types map[wire.Type]bool
}

// NewPublisher creates a publisher sending through ep.
func NewPublisher(ep Endpoint) *Publisher {
	return &Publisher{ep: ep}
}

// Subscribe registers addr for the given types; empty types means all.
func (p *Publisher) Subscribe(addr string, types ...wire.Type) {
	i, found := p.find(addr)
	sub := subscriber{addr: addr}
	if len(types) > 0 {
		sub.types = make(map[wire.Type]bool)
		if found {
			for t := range p.subs[i].types {
				sub.types[t] = true
			}
		}
		for _, t := range types {
			sub.types[t] = true
		}
	}
	if found {
		p.subs[i] = sub
	} else {
		p.subs = slices.Insert(p.subs, i, sub)
	}
}

// find returns addr's place in the sorted list and whether it is there.
func (p *Publisher) find(addr string) (int, bool) {
	return slices.BinarySearchFunc(p.subs, addr, func(s subscriber, addr string) int {
		return strings.Compare(s.addr, addr)
	})
}

// Unsubscribe removes addr entirely.
func (p *Publisher) Unsubscribe(addr string) {
	if i, found := p.find(addr); found {
		p.subs = slices.Delete(p.subs, i, i+1)
	}
}

// Publish sends the packet to every subscriber whose filter matches. The
// payload is copied into one pooled frame per subscriber (each peer's
// writer owns and recycles its copy independently); the caller keeps
// ownership of payload and may recycle it after Publish returns.
//
// Broadcasts carrying protocol state (views, phase advances) must not be
// lost, so each per-subscriber send is acked: the node retransmits until
// the subscriber confirms processing, and gives up only after the full
// retransmission budget (by which point the membership machinery should
// have evicted the dead subscriber).
func (p *Publisher) Publish(typ wire.Type, payload []byte) {
	p.PublishCtx(typ, payload, trace.SpanContext{})
}

// PublishCtx is Publish with a distributed-trace context stamped on each
// subscriber's frame, so broadcast consumers can link their handling
// spans under the publisher's span. The zero ctx publishes plain frames.
func (p *Publisher) PublishCtx(typ wire.Type, payload []byte, ctx trace.SpanContext) {
	for _, sub := range p.subs {
		if sub.types != nil && !sub.types[typ] {
			continue
		}
		frame := append(NewFrameCtx(p.ep, typ, len(payload), ctx), payload...)
		if wire.AckedPush(typ) {
			_, _ = p.ep.SendFrameAcked(sub.addr, frame)
		} else {
			_ = p.ep.SendFrame(sub.addr, frame)
		}
	}
}
