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

// Proto is the transport's protocol with no I/O in it: request IDs, the
// acked sends still waiting for their TAck, each sender's duplicate window,
// and the lazy acks parked until a frame to their sender carries them.
// Every decision of the acked-PUSH pattern is made here; what it asks of the
// world (frames to write, packets to deliver, sends given back)
// comes back as results. It starts no goroutine, takes no lock and reads no
// clock — Send and Tick are given the time — so a test or a simulator
// (sim.Endpoint) drives it event by event; Node is its I/O shell.
type Proto struct {
	self        string // the node's address: the sender of every ack built here
	stats       *nodeStats
	nextReq     uint32
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

// Verdict is what the shell does with an inbound packet: release it (the
// protocol consumed it), hand it to the entity, or hand it to the request
// waiting for its ID, if one is, else the entity.
type Verdict uint8

const (
	InDrop Verdict = iota
	InDeliver
	InReply
)

// TickOut is what a tick asks of the shell: retransmissions and parked acks
// to write without waiting for room, grouped by address, and the TAcks
// synthesized for sends given up to deliver. Its slices are reused.
type TickOut struct {
	Writes  []OutFrame
	Deliver []*wire.Packet
	due     []uint32 // scratch
}

// OutFrame is a finished frame to write to Addr.
type OutFrame struct {
	Addr  string
	Frame []byte
}

// NewProto returns the protocol of the node at self, with counters of its
// own.
func NewProto(self string) Proto {
	return Proto{
		self:        self,
		stats:       &nodeStats{},
		outstanding: make(map[uint32]pendingAck),
		dedup:       make(map[string]*dedupWindow),
	}
}

// NewReq allocates the next request ID, never 0 ("no ID"), for acked sends
// and REQ/REP requests alike.
func (p *Proto) NewReq() uint32 {
	if p.nextReq++; p.nextReq == 0 {
		p.nextReq = 1
	}
	return p.nextReq
}

// Send makes frame an acked send to addr at now, for the shell to write
// (waiting for room): it stamps a request ID and the payload length into
// frame and keeps a copy to resend. On error frame has been released.
func (p *Proto) Send(addr string, frame []byte, now time.Time) (uint32, error) {
	req := p.NewReq()
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

// Complete forgets send req, if outstanding, and releases its copy: acked,
// given up, or (an input of the shell's) never handed to a peer.
func (p *Proto) Complete(req uint32) bool {
	pa, ok := p.outstanding[req]
	if ok {
		delete(p.outstanding, req)
		releaseFrame(pa.frame)
	}
	return ok
}

// FrameIn judges an inbound packet. A TAck completes its send, once, and
// goes on to the entity, whose ack groups it may drain; acks for sends
// completed, given up or given back are dropped. A duplicate acked push is
// dropped, and re-acked at once (reack, to write waiting for room) only if
// the entity acked the original: an entity may hold a packet (a forward
// chain, a batch waiting for its view) past the sender's RTO, and an ack
// for the duplicate would tell the sender it had been processed.
func (p *Proto) FrameIn(pkt *wire.Packet) (v Verdict, reack []byte) {
	switch {
	case pkt.Type == wire.TAck:
		if !p.Complete(pkt.Req) {
			return InDrop, nil
		}
	case pkt.Req == 0:
	case pkt.From == "" || !wire.AckedPush(pkt.Type):
		return InReply, nil
	default:
		if seen, acked := p.seenOrRecord(pkt.From, pkt.Req); seen {
			p.stats.dupsDropped.Add(1)
			if acked {
				reack = p.ackFrame(pkt.Req)
			}
			return InDrop, reack
		}
	}
	return InDeliver, nil
}

// seenOrRecord reports whether from's req was delivered before and if so
// whether the entity acked it; a new req is recorded, evicting the oldest
// once the window is full.
func (p *Proto) seenOrRecord(from string, req uint32) (seen, acked bool) {
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

// Ack records that the entity processed pkt. An ack the sender waits on
// comes back as a frame to write now (waiting for room); a lazy one is
// parked for TakeAcks or the next tick.
func (p *Proto) Ack(pkt *wire.Packet) []byte {
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

// TakeAcks appends to frames, as TAck frames, the acks parked for addr —
// at most maxCoalesce-1, so that they and the frame they ride are one gather
// of the writer's — and forgets them.
func (p *Proto) TakeAcks(addr string, frames [][]byte) [][]byte {
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

// Cancel gives back every send outstanding to addr, in request order,
// frames and all, and drops the acks parked for it: the peer is presumed
// gone. Acks it sends later find nothing to complete.
func (p *Proto) Cancel(addr string) (failed []FailedSend) {
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

// Tick advances the protocol to now: each send whose RTO ran out is resent
// with the RTO doubled, or after ackMaxResend resends given up with a
// synthesized TAck, so the entity's barrier gates drain instead of wedging
// on a peer that will never answer (a dead peer is normally given back long
// before, by Cancel) — and every parked ack leaves.
func (p *Proto) Tick(now time.Time, o *TickOut) {
	o.Writes, o.Deliver, o.due = o.Writes[:0], o.Deliver[:0], o.due[:0]
	for req, pa := range p.outstanding {
		if !pa.nextAt.After(now) {
			o.due = append(o.due, req)
		}
	}
	slices.Sort(o.due)
	for _, req := range o.due {
		pa := p.outstanding[req]
		if pa.attempts >= ackMaxResend {
			p.Complete(req)
			p.stats.ackGiveUps.Add(1)
			pkt := wire.GetPacket()
			pkt.Type, pkt.Req, pkt.From = wire.TAck, req, pa.addr
			o.Deliver = append(o.Deliver, pkt)
			continue
		}
		pa.attempts++
		pa.nextAt = now.Add(min(ackRTO<<uint(pa.attempts), ackRTOMax))
		p.outstanding[req] = pa
		p.stats.retransmits.Add(1)
		o.Writes = append(o.Writes, OutFrame{pa.addr, append(wire.GetFrame(len(pa.frame)), pa.frame...)})
	}
	for _, a := range p.parked {
		o.Writes = append(o.Writes, OutFrame{a.addr, p.ackFrame(a.req)})
	}
	p.parked = p.parked[:0]
	slices.SortStableFunc(o.Writes, func(a, b OutFrame) int { return strings.Compare(a.Addr, b.Addr) })
}

// Idle reports whether nothing waits on a tick: no send outstanding and no
// ack parked.
func (p *Proto) Idle() bool { return len(p.outstanding) == 0 && len(p.parked) == 0 }

// Stats is the protocol's part of the node's Stats: the acked sends
// outstanding, and the retransmissions, duplicates dropped and give-ups
// counted so far.
func (p *Proto) Stats() Stats {
	return Stats{
		OutstandingAcks:   uint64(len(p.outstanding)),
		Retransmits:       p.stats.retransmits.Load(),
		DuplicatesDropped: p.stats.dupsDropped.Load(),
		AckGiveUps:        p.stats.ackGiveUps.Load(),
	}
}

// Close releases every retained frame: the node is gone.
func (p *Proto) Close() {
	for req := range p.outstanding {
		p.Complete(req)
	}
}

// ackFrame is a TAck for req from this node: a header alone is a finished
// frame.
func (p *Proto) ackFrame(req uint32) []byte {
	return wire.AppendFrameHeader(wire.GetFrame(frameSizeHint), wire.TAck, req, p.self)
}
