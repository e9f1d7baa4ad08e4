package transport

import (
	"time"

	"elga/internal/trace"
	"elga/internal/wire"
)

// Endpoint is everything a participant's event loop does with the network
// and the clock: the agent, the directory, the master and Publisher hold
// one and nothing else of the transport. *Node is the production endpoint;
// a test or a simulator that implements it (sim.Endpoint) drives a
// participant on one goroutine with virtual time, feeding its packets to
// Handle. Nothing here blocks: even bootstrap is a push and a reply (Boot).
//
// Frames come from NewFrame or NewFrameHint with the payload appended in
// place (wire.AppendX); every send takes ownership of its frame.
type Endpoint interface {
	// Addr is the endpoint's dialable address, the From of its frames.
	Addr() string
	// Now is the participant's clock: every timestamp, lease and duration
	// it measures reads it.
	Now() time.Time

	NewFrame(typ wire.Type) []byte
	NewFrameHint(typ wire.Type, payloadHint int) []byte
	// SendFrame is a one-way push.
	SendFrame(addr string, frame []byte) error
	// SendFrameAcked is a push the receiver acknowledges after processing
	// it, retransmitted until it does. The returned request ID is the Req
	// of the TAck that completes it.
	SendFrameAcked(addr string, frame []byte) (uint32, error)
	// ReplyFrame answers a request packet.
	ReplyFrame(req *wire.Packet, frame []byte) error
	// Ack acknowledges a processed acked push to its sender.
	Ack(pkt *wire.Packet)

	// After delivers a TTick carrying tag to the participant once d has
	// passed on its clock.
	After(d time.Duration, tag []byte)
	// Inject delivers a packet to the participant itself, bypassing the
	// network; it is safe to call from any goroutine.
	Inject(typ wire.Type, payload []byte) error
	// CancelPeer retires the queue for addr and returns the acked sends to
	// it that were still outstanding.
	CancelPeer(addr string) []FailedSend
	// Stats snapshots the endpoint's counters and gauges; safe from any
	// goroutine.
	Stats() Stats
	// Close stops the endpoint; safe from any goroutine.
	Close()
}

// NewFrameCtx starts a frame from ep carrying a distributed-trace context in
// the optional header extension; an invalid ctx yields a plain frame, so
// call sites stay branch-free.
func NewFrameCtx(ep Endpoint, typ wire.Type, payloadHint int, ctx trace.SpanContext) []byte {
	hint := frameHeaderBytes + trace.ContextWireLen + len(ep.Addr()) + payloadHint
	return wire.AppendFrameHeaderCtx(wire.GetFrame(hint), typ, 0, ep.Addr(), ctx)
}

var _ Endpoint = (*Node)(nil)
