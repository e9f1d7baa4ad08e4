package transport

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"elga/internal/wire"
)

// An acked send is resent after ackRTO, doubling per attempt up to
// ackRTOMax, at most ackMaxResend times before it is given up. Receivers
// remember the last dedupWindowSize request IDs of each sender, which
// comfortably covers that horizon, so a duplicate is dropped, not processed
// twice.
const (
	ackRTO          = 200 * time.Millisecond
	ackRTOMax       = 2 * time.Second
	ackMaxResend    = 6
	dedupWindowSize = 8192
)

// proto is the transport's protocol with no I/O in it: request IDs, the
// acked sends still waiting for their TAck, each sender's duplicate window,
// and the lazy acks parked until a frame to their sender carries them.
// Every decision of the acked-PUSH pattern is made here; what it asks of the
// world (frames to write, packets to deliver, sends given back)
// comes back as results. It starts no goroutine, takes no lock and reads no
// clock — send and tick are given the time — so a test (or a simulator) can
// drive it event by event; Node is its I/O shell.
type proto struct {
	self        string // the node's address: the sender of every ack built here
	stats       *nodeStats
	nextReq     uint32
	notify      bool // TAcks go to the entity too (Node.SetAckNotify)
	outstanding map[uint32]pendingAck
	dedup       map[string]*dedupWindow
	parked      []parkedAck // in the order the entity acked
}

// pendingAck is one acked send without its TAck: a copy of its frame, resent
// verbatim on each RTO expiry until the ack comes or the send is given up.
type pendingAck struct {
	addr     string
	frame    []byte
	attempts int
	nextAt   time.Time
}

// dedupWindow is a ring of one sender's last request IDs (grown as they
// arrive, not allocated whole) and for each whether the entity acked it.
type dedupWindow struct {
	seen map[uint32]bool
	ring []uint32
	pos  int
}

// parkedAck is a lazy ack (wire.LazyAck) owed to addr.
type parkedAck struct {
	addr string
	req  uint32
}

// verdict is what the shell does with an inbound packet: release it (the
// protocol consumed it), put it in the inbox, or hand it to the request
// waiting for its ID, if one is, else the inbox.
type verdict uint8

const (
	inDrop verdict = iota
	inDeliver
	inReply
)

// tickOut is what a tick asks of the shell: retransmissions and parked acks
// to write without waiting for room, grouped by address, and the TAcks
// synthesized for sends given up to deliver. Its slices are reused.
type tickOut struct {
	writes  []outFrame
	deliver []*wire.Packet
	due     []uint32 // scratch
}

type outFrame struct {
	addr  string
	frame []byte
}

func newProto(self string, stats *nodeStats) proto {
	return proto{
		self:        self,
		stats:       stats,
		outstanding: make(map[uint32]pendingAck),
		dedup:       make(map[string]*dedupWindow),
	}
}

// newReq allocates the next request ID, never 0 ("no ID"), for acked sends
// and REQ/REP requests alike.
func (p *proto) newReq() uint32 {
	if p.nextReq++; p.nextReq == 0 {
		p.nextReq = 1
	}
	return p.nextReq
}

// send makes frame an acked send to addr at now, for the shell to write
// (waiting for room): it stamps a request ID and the payload length into
// frame and keeps a copy to resend. On error frame has been released.
func (p *proto) send(addr string, frame []byte, now time.Time) (uint32, error) {
	req := p.newReq()
	wire.PatchFrameReq(frame, req)
	if err := wire.FinishFrame(frame); err != nil {
		releaseFrame(frame)
		return 0, err
	}
	p.outstanding[req] = pendingAck{
		addr:   addr,
		frame:  append(wire.GetFrame(len(frame)), frame...),
		nextAt: now.Add(ackRTO),
	}
	return req, nil
}

// complete forgets send req, if outstanding, and releases its copy: acked,
// given up, or (an input of the shell's) never handed to a peer.
func (p *proto) complete(req uint32) bool {
	pa, ok := p.outstanding[req]
	if ok {
		delete(p.outstanding, req)
		releaseFrame(pa.frame)
	}
	return ok
}

// frameIn judges an inbound packet. A TAck completes its send, once; acks
// for sends completed, given up or given back are dropped. A duplicate
// acked push is dropped, and re-acked at once (reack, to write waiting for
// room) only if the entity acked the original: an entity may hold a packet
// (a forward chain, a batch waiting for its view) past the sender's RTO,
// and an ack for the duplicate would tell the sender it had been processed.
func (p *proto) frameIn(pkt *wire.Packet) (v verdict, reack []byte) {
	switch {
	case pkt.Type == wire.TAck:
		if !p.complete(pkt.Req) || !p.notify {
			return inDrop, nil
		}
	case pkt.Req == 0:
	case pkt.From == "" || !wire.AckedPush(pkt.Type):
		return inReply, nil
	default:
		if seen, acked := p.seenOrRecord(pkt.From, pkt.Req); seen {
			p.stats.dupsDropped.Add(1)
			if acked {
				reack = p.ackFrame(pkt.Req)
			}
			return inDrop, reack
		}
	}
	return inDeliver, nil
}

// seenOrRecord reports whether from's req was delivered before and if so
// whether the entity acked it; a new req is recorded, evicting the oldest
// once the window is full.
func (p *proto) seenOrRecord(from string, req uint32) (seen, acked bool) {
	w := p.dedup[from]
	if w == nil {
		w = &dedupWindow{seen: make(map[uint32]bool)}
		p.dedup[from] = w
	}
	if acked, seen = w.seen[req]; seen {
		return true, acked
	}
	if len(w.ring) < dedupWindowSize {
		w.ring = append(w.ring, req)
	} else {
		delete(w.seen, w.ring[w.pos])
		w.ring[w.pos] = req
		w.pos = (w.pos + 1) % dedupWindowSize
	}
	w.seen[req] = false
	return false, false
}

// ack records that the entity processed pkt. An ack the sender waits on
// comes back as a frame to write now (waiting for room); a lazy one is
// parked for takeAcks or the next tick.
func (p *proto) ack(pkt *wire.Packet) []byte {
	if pkt.Req == 0 || pkt.From == "" {
		return nil
	}
	if w := p.dedup[pkt.From]; w != nil {
		if _, seen := w.seen[pkt.Req]; seen {
			w.seen[pkt.Req] = true // duplicates from now on are re-acked
		}
	}
	if !wire.LazyAck(pkt.Type) {
		return p.ackFrame(pkt.Req)
	}
	p.parked = append(p.parked, parkedAck{pkt.From, pkt.Req})
	return nil
}

// takeAcks appends to frames, as TAck frames, the acks parked for addr —
// at most maxCoalesce-1, so that they and the frame they ride are one gather
// of the writer's — and forgets them.
func (p *proto) takeAcks(addr string, frames [][]byte) [][]byte {
	taken := 0
	p.parked = slices.DeleteFunc(p.parked, func(a parkedAck) bool {
		if a.addr != addr || taken == maxCoalesce-1 {
			return false
		}
		frames = append(frames, p.ackFrame(a.req))
		taken++
		return true
	})
	return frames
}

// cancel gives back every send outstanding to addr, in request order,
// frames and all, and drops the acks parked for it: the peer is presumed
// gone. Acks it sends later find nothing to complete.
func (p *proto) cancel(addr string) (failed []FailedSend) {
	for req, pa := range p.outstanding {
		if pa.addr == addr {
			failed = append(failed, FailedSend{Req: req, Frame: pa.frame})
			delete(p.outstanding, req)
		}
	}
	slices.SortFunc(failed, func(a, b FailedSend) int { return cmp.Compare(a.Req, b.Req) })
	p.parked = slices.DeleteFunc(p.parked, func(a parkedAck) bool { return a.addr == addr })
	return failed
}

// tick advances the protocol to now: each send whose RTO ran out is resent
// with the RTO doubled, or after ackMaxResend resends given up — under
// notify with a synthesized TAck, so the entity's barrier gates drain
// instead of wedging on a peer that will never answer (a dead peer is
// normally given back long before, by cancel) — and every parked ack leaves.
func (p *proto) tick(now time.Time, o *tickOut) {
	o.writes, o.deliver, o.due = o.writes[:0], o.deliver[:0], o.due[:0]
	for req, pa := range p.outstanding {
		if !pa.nextAt.After(now) {
			o.due = append(o.due, req)
		}
	}
	slices.Sort(o.due)
	for _, req := range o.due {
		pa := p.outstanding[req]
		if pa.attempts >= ackMaxResend {
			p.complete(req)
			p.stats.ackGiveUps.Add(1)
			if p.notify {
				pkt := wire.GetPacket()
				pkt.Type, pkt.Req, pkt.From = wire.TAck, req, pa.addr
				o.deliver = append(o.deliver, pkt)
			}
			continue
		}
		pa.attempts++
		pa.nextAt = now.Add(min(ackRTO<<uint(pa.attempts), ackRTOMax))
		p.outstanding[req] = pa
		p.stats.retransmits.Add(1)
		o.writes = append(o.writes, outFrame{pa.addr, append(wire.GetFrame(len(pa.frame)), pa.frame...)})
	}
	for _, a := range p.parked {
		o.writes = append(o.writes, outFrame{a.addr, p.ackFrame(a.req)})
	}
	p.parked = p.parked[:0]
	slices.SortStableFunc(o.writes, func(a, b outFrame) int { return strings.Compare(a.addr, b.addr) })
}

// close releases every retained frame: the node is gone.
func (p *proto) close() {
	for req := range p.outstanding {
		p.complete(req)
	}
}

// ackFrame is a TAck for req from this node: a header alone is a finished
// frame.
func (p *proto) ackFrame(req uint32) []byte {
	return wire.AppendFrameHeader(wire.GetFrame(frameSizeHint), wire.TAck, req, p.self)
}
