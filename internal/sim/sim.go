// Package sim runs a whole ElGA cluster on one goroutine. A World holds
// in-memory endpoints (transport.Endpoint) for a master, directories and
// agents built over them (directory.NewMaster, directory.New, agent.New),
// delivers their frames in FIFO order to each receiver's Handle on the
// caller's goroutine, and fires their After timers in time order on a
// virtual clock that moves only when a timer fires. A fault hook drops or
// duplicates the next frame of a type to an address.
//
// Frames and packets are built as the production Node builds them
// (wire.FinishFrame, wire.UnmarshalPacketInto). The endpoint numbers acked
// sends and keeps each until its TAck, which reaches the sender's Handle
// as under Node.SetAckNotify(true); CancelPeer gives back the ones still
// outstanding to a peer, and a TAck that finds its send gone is dropped.
// Nothing is lost or retransmitted unless a fault hook says so, and
// nothing is deduplicated.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"elga/internal/transport"
	"elga/internal/wire"
)

// World is one simulated cluster: its endpoints, the frames in flight, the
// armed timers and the virtual clock.
type World struct {
	now    time.Time
	eps    map[string]*Endpoint
	queue  []delivery // in send order
	timers []timer    // by due time, then arming order
	armed  uint64
	faults []fault
	sent   map[sentKey]int
}

type delivery struct {
	to    string
	frame []byte // finished
}

type timer struct {
	at  time.Time
	seq uint64
	to  string
	tag []byte
}

type fault struct {
	typ wire.Type
	to  string
	dup bool // duplicate, else drop
}

type sentKey struct {
	from string
	typ  wire.Type
}

// NewWorld returns an empty world whose clock reads a fixed instant.
func NewWorld() *World {
	return &World{now: time.Unix(1<<30, 0), eps: make(map[string]*Endpoint), sent: make(map[sentKey]int)}
}

// Endpoint adds an endpoint at addr; Serve gives it its participant.
func (w *World) Endpoint(addr string) *Endpoint {
	if w.eps[addr] != nil {
		panic(fmt.Sprintf("sim: endpoint %q exists", addr))
	}
	e := &Endpoint{w: w, addr: addr}
	w.eps[addr] = e
	return e
}

// Drop discards the next frame of type typ sent to addr.
func (w *World) Drop(typ wire.Type, to string) { w.faults = append(w.faults, fault{typ, to, false}) }

// Duplicate delivers the next frame of type typ sent to addr twice.
func (w *World) Duplicate(typ wire.Type, to string) {
	w.faults = append(w.faults, fault{typ, to, true})
}

// Sent counts the frames of type typ sent from addr, dropped ones included.
func (w *World) Sent(from string, typ wire.Type) int { return w.sent[sentKey{from, typ}] }

// send puts a finished frame in flight, through the fault hook.
func (w *World) send(from, to string, frame []byte) {
	typ := wire.FrameType(frame)
	w.sent[sentKey{from, typ}]++
	for i, f := range w.faults {
		if f.typ != typ || f.to != to {
			continue
		}
		w.faults = slices.Delete(w.faults, i, i+1)
		if !f.dup {
			wire.ReleaseFrame(frame)
			return
		}
		w.queue = append(w.queue, delivery{to, append(wire.GetFrame(len(frame)), frame...)})
		break
	}
	w.queue = append(w.queue, delivery{to, frame})
}

// step delivers the oldest frame in flight or, with none, fires the earliest
// timer, moving the clock to it. It reports false when there is neither.
func (w *World) step() bool {
	if len(w.queue) > 0 {
		d := w.queue[0]
		w.queue = w.queue[1:]
		w.deliver(d.to, d.frame)
		return true
	}
	if len(w.timers) == 0 {
		return false
	}
	t := w.timers[0]
	w.timers = w.timers[1:]
	w.now = t.at
	if e := w.eps[t.to]; e != nil {
		w.deliver(t.to, e.finished(wire.TTick, t.tag))
	}
	return true
}

// Step steps the whole world: a blocking call of the participant on e
// (transport.Subscriber.Do) runs the world until the call ends.
func (e *Endpoint) Step() bool { return e.w.step() }

// RunUntil steps the world until done reports true. It fails when the world
// has nothing left to do, or when done is still false once the clock would
// pass limit from now.
func (w *World) RunUntil(done func() bool, limit time.Duration) error {
	end := w.now.Add(limit)
	for !done() {
		if len(w.queue) == 0 && len(w.timers) > 0 && w.timers[0].at.After(end) {
			return fmt.Errorf("sim: not done within %v", limit)
		}
		if !w.step() {
			return fmt.Errorf("sim: nothing left to do at %v", w.now)
		}
	}
	return nil
}

// deliver hands frame to the Handle of the endpoint at to; a closed or
// unserved endpoint, an unparsable frame or a TAck for no outstanding send
// releases it.
func (w *World) deliver(to string, frame []byte) {
	pkt := wire.GetPacket()
	if err := wire.UnmarshalPacketInto(pkt, frame, nil); err != nil {
		wire.ReleasePacket(pkt)
		return
	}
	e := w.eps[to]
	if e == nil || e.closed || e.handle == nil ||
		pkt.Type == wire.TAck && !e.complete(pkt) || !e.handle(pkt) {
		wire.ReleasePacket(pkt)
	}
}

// Endpoint is one participant's transport.Endpoint in a World.
type Endpoint struct {
	w       *World
	addr    string
	handle  func(*wire.Packet) bool
	nextReq uint32
	closed  bool
	// unacked holds a copy of each acked send without its TAck, in send
	// order.
	unacked []unacked
}

type unacked struct {
	to    string
	req   uint32
	frame []byte
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Serve makes handle the endpoint's packet handler: a participant's Handle,
// which reports whether it retained the packet.
func (e *Endpoint) Serve(handle func(*wire.Packet) bool) { e.handle = handle }

func (e *Endpoint) Addr() string   { return e.addr }
func (e *Endpoint) Now() time.Time { return e.w.now }

func (e *Endpoint) NewFrame(typ wire.Type) []byte { return e.NewFrameHint(typ, 0) }

func (e *Endpoint) NewFrameHint(typ wire.Type, payloadHint int) []byte {
	return wire.AppendFrameHeader(wire.GetFrame(32+len(e.addr)+payloadHint), typ, 0, e.addr)
}

func (e *Endpoint) SendFrame(addr string, frame []byte) error {
	if err := wire.FinishFrame(frame); err != nil {
		wire.ReleaseFrame(frame)
		return err
	}
	e.w.send(e.addr, addr, frame)
	return nil
}

func (e *Endpoint) SendFrameAcked(addr string, frame []byte) (uint32, error) {
	if e.nextReq++; e.nextReq == 0 {
		e.nextReq = 1
	}
	wire.PatchFrameReq(frame, e.nextReq)
	if err := wire.FinishFrame(frame); err != nil {
		wire.ReleaseFrame(frame)
		return 0, err
	}
	e.unacked = append(e.unacked, unacked{
		to:    addr,
		req:   e.nextReq,
		frame: append(wire.GetFrame(len(frame)), frame...),
	})
	e.w.send(e.addr, addr, frame)
	return e.nextReq, nil
}

// complete forgets the send ack acknowledges and reports whether it was
// outstanding.
func (e *Endpoint) complete(ack *wire.Packet) bool {
	i := slices.IndexFunc(e.unacked, func(u unacked) bool { return u.req == ack.Req && u.to == ack.From })
	if i < 0 {
		return false
	}
	wire.ReleaseFrame(e.unacked[i].frame)
	e.unacked = slices.Delete(e.unacked, i, i+1)
	return true
}

func (e *Endpoint) ReplyFrame(req *wire.Packet, frame []byte) error {
	wire.PatchFrameReq(frame, req.Req)
	return e.SendFrame(req.From, frame)
}

// Ack sends the TAck of an acked push back to its sender.
func (e *Endpoint) Ack(pkt *wire.Packet) {
	if pkt.Req != 0 && pkt.From != "" {
		_ = e.SendFrame(pkt.From, wire.AppendFrameHeader(wire.GetFrame(32+len(e.addr)), wire.TAck, pkt.Req, e.addr))
	}
}

// After arms a timer that delivers a TTick carrying tag once the clock has
// moved d on.
func (e *Endpoint) After(d time.Duration, tag []byte) {
	t := timer{at: e.w.now.Add(d), seq: e.w.armed, to: e.addr, tag: slices.Clone(tag)}
	e.w.armed++
	i, _ := slices.BinarySearchFunc(e.w.timers, t, func(a, b timer) int {
		return cmp.Or(a.at.Compare(b.at), cmp.Compare(a.seq, b.seq))
	})
	e.w.timers = slices.Insert(e.w.timers, i, t)
}

// Inject queues a packet to the endpoint itself, past the fault hook.
func (e *Endpoint) Inject(typ wire.Type, payload []byte) error {
	e.w.queue = append(e.w.queue, delivery{e.addr, e.finished(typ, payload)})
	return nil
}

// finished is a finished frame of type typ from e carrying payload.
func (e *Endpoint) finished(typ wire.Type, payload []byte) []byte {
	frame := append(e.NewFrameHint(typ, len(payload)), payload...)
	_ = wire.FinishFrame(frame)
	return frame
}

// CancelPeer gives back the acked sends to addr still without their TAck,
// in send order.
func (e *Endpoint) CancelPeer(addr string) (failed []transport.FailedSend) {
	e.unacked = slices.DeleteFunc(e.unacked, func(u unacked) bool {
		if u.to == addr {
			failed = append(failed, transport.FailedSend{Req: u.req, Frame: u.frame})
		}
		return u.to == addr
	})
	return failed
}

// Stats counts the acked sends outstanding; nothing else is counted here.
func (e *Endpoint) Stats() transport.Stats {
	return transport.Stats{OutstandingAcks: uint64(len(e.unacked))}
}

// Close stops deliveries to the endpoint.
func (e *Endpoint) Close() { e.closed = true }
