// Package sim runs a whole ElGA cluster on one goroutine. A World holds
// in-memory endpoints (transport.Endpoint) for a master, directories,
// agents, streamers and clients built over them, delivers their frames in
// FIFO order to each receiver's Handle on the caller's goroutine, and fires
// their After timers in time order on a virtual clock that moves only when
// a timer fires.
//
// Each endpoint runs the transport's own acked-push protocol
// (transport.Proto) as a Node does, on frames and packets built as the Node
// builds them (wire.FinishFrame, wire.UnmarshalPacketInto): an acked send is
// numbered and resent on its RTO until its TAck reaches the sender's Handle,
// a duplicate is dropped and re-acked only if it was processed, a lazy ack
// rides the next frame to its sender or leaves at the next protocol tick,
// and CancelPeer gives back the sends still outstanding. The protocol tick
// is the endpoint's own timer, every transport.TickPeriod while a send is
// outstanding or an ack parked; it never reaches Handle.
//
// Frames are lost or duplicated only by a fault: a one-shot hook that drops
// or duplicates the next frame of a type to an address, or a seeded rate
// for every frame (Chaos).
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
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
	// chaos draws the per-frame faults; nil without Chaos.
	chaos     *rand.Rand
	drop, dup float64
}

type delivery struct {
	to    string
	frame []byte // finished
}

type timer struct {
	at    time.Time
	seq   uint64
	to    string
	tag   []byte
	proto bool // the endpoint's protocol tick, not a TTick for Handle
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
	e := &Endpoint{w: w, addr: addr, p: transport.NewProto(addr)}
	w.eps[addr] = e
	return e
}

// Drop discards the next frame of type typ sent to addr.
func (w *World) Drop(typ wire.Type, to string) { w.faults = append(w.faults, fault{typ, to, false}) }

// Duplicate delivers the next frame of type typ sent to addr twice.
func (w *World) Duplicate(typ wire.Type, to string) {
	w.faults = append(w.faults, fault{typ, to, true})
}

// Chaos discards each frame sent from now on with probability drop and
// delivers it twice with probability duplicate, drawn in send order from
// one source seeded with seed. A frame a one-shot hook takes draws nothing.
func (w *World) Chaos(seed int64, drop, duplicate float64) {
	w.chaos, w.drop, w.dup = rand.New(rand.NewSource(seed)), drop, duplicate
}

// Now reads the virtual clock.
func (w *World) Now() time.Time { return w.now }

// Sent counts the frames of type typ sent from addr, dropped ones included.
func (w *World) Sent(from string, typ wire.Type) int { return w.sent[sentKey{from, typ}] }

// send puts a finished frame in flight, through the fault hooks.
func (w *World) send(from, to string, frame []byte) {
	typ := wire.FrameType(frame)
	w.sent[sentKey{from, typ}]++
	drop, dup := w.fault(typ, to)
	if drop {
		wire.ReleaseFrame(frame)
		return
	}
	if dup {
		w.queue = append(w.queue, delivery{to, append(wire.GetFrame(len(frame)), frame...)})
	}
	w.queue = append(w.queue, delivery{to, frame})
}

// fault decides a frame's fate: the first one-shot hook for its type and
// address, which it uses up, else the chaos draws.
func (w *World) fault(typ wire.Type, to string) (drop, dup bool) {
	for i, f := range w.faults {
		if f.typ == typ && f.to == to {
			w.faults = slices.Delete(w.faults, i, i+1)
			return !f.dup, f.dup
		}
	}
	if w.chaos == nil {
		return false, false
	}
	drop = w.chaos.Float64() < w.drop
	dup = w.chaos.Float64() < w.dup
	return drop, dup
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
	switch e := w.eps[t.to]; {
	case e == nil || e.closed:
	case t.proto:
		e.tick()
	default:
		w.deliver(t.to, e.finished(wire.TTick, t.tag))
	}
	return true
}

// arm inserts t among the timers, after those due at the same instant.
func (w *World) arm(t timer) {
	t.seq = w.armed
	w.armed++
	i, _ := slices.BinarySearchFunc(w.timers, t, func(a, b timer) int {
		return cmp.Or(a.at.Compare(b.at), cmp.Compare(a.seq, b.seq))
	})
	w.timers = slices.Insert(w.timers, i, t)
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

// deliver hands frame to the endpoint at to; a closed or unserved endpoint,
// or an unparsable frame, releases it.
func (w *World) deliver(to string, frame []byte) {
	pkt := wire.GetPacket()
	if err := wire.UnmarshalPacketInto(pkt, frame, nil); err != nil {
		wire.ReleasePacket(pkt)
		return
	}
	if e := w.eps[to]; e != nil && !e.closed && e.handle != nil {
		e.receive(pkt)
	} else {
		wire.ReleasePacket(pkt)
	}
}

// Endpoint is one participant's transport.Endpoint in a World.
type Endpoint struct {
	w      *World
	addr   string
	handle func(*wire.Packet) bool
	p      transport.Proto
	out    transport.TickOut
	// ticking is set while the protocol tick is armed.
	ticking bool
	closed  bool
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Serve makes handle the endpoint's packet handler: a participant's Handle,
// which reports whether it retained the packet.
func (e *Endpoint) Serve(handle func(*wire.Packet) bool) { e.handle = handle }

func (e *Endpoint) Addr() string   { return e.addr }
func (e *Endpoint) Now() time.Time { return e.w.Now() }

func (e *Endpoint) NewFrame(typ wire.Type) []byte { return e.NewFrameHint(typ, 0) }

func (e *Endpoint) NewFrameHint(typ wire.Type, payloadHint int) []byte {
	return wire.AppendFrameHeader(wire.GetFrame(32+len(e.addr)+payloadHint), typ, 0, e.addr)
}

// receive judges pkt by the protocol, as Node.dispatch does, and hands
// Handle what the protocol lets through.
func (e *Endpoint) receive(pkt *wire.Packet) {
	v, reack := e.p.FrameIn(pkt)
	if reack != nil {
		e.push(pkt.From, reack)
	}
	if v == transport.InDrop || !e.handle(pkt) {
		wire.ReleasePacket(pkt)
	}
}

// push puts a finished frame in flight to addr behind the acks parked for
// addr, which ride it as they ride a Node's write to an idle peer.
func (e *Endpoint) push(addr string, frame []byte) {
	for _, ack := range e.p.TakeAcks(addr, nil) {
		e.w.send(e.addr, addr, ack)
	}
	e.w.send(e.addr, addr, frame)
}

func (e *Endpoint) SendFrame(addr string, frame []byte) error {
	if err := wire.FinishFrame(frame); err != nil {
		wire.ReleaseFrame(frame)
		return err
	}
	e.push(addr, frame)
	return nil
}

func (e *Endpoint) SendFrameAcked(addr string, frame []byte) (uint32, error) {
	req, err := e.p.Send(addr, frame, e.w.now)
	if err != nil {
		return 0, err
	}
	e.push(addr, frame)
	e.arm()
	return req, nil
}

func (e *Endpoint) ReplyFrame(req *wire.Packet, frame []byte) error {
	wire.PatchFrameReq(frame, req.Req)
	return e.SendFrame(req.From, frame)
}

// Ack acknowledges a processed acked push: at once, or if its sender does
// not wait on it (wire.LazyAck) with the next frame to the sender or the
// next protocol tick.
func (e *Endpoint) Ack(pkt *wire.Packet) {
	if frame := e.p.Ack(pkt); frame != nil {
		e.push(pkt.From, frame)
	}
	e.arm()
}

// arm arms the protocol tick TickPeriod from now, unless it is armed or the
// protocol waits on none.
func (e *Endpoint) arm() {
	if e.ticking || e.closed || e.p.Idle() {
		return
	}
	e.ticking = true
	e.w.arm(timer{at: e.w.now.Add(transport.TickPeriod), to: e.addr, proto: true})
}

// tick runs the protocol's clock, as Node.clock does: resends and parked
// acks go out, and the TAcks of sends given up reach Handle.
func (e *Endpoint) tick() {
	e.ticking = false
	e.p.Tick(e.w.now, &e.out)
	for _, o := range e.out.Writes {
		e.w.send(e.addr, o.Addr, o.Frame)
	}
	for _, pkt := range e.out.Deliver {
		if e.handle == nil || !e.handle(pkt) {
			wire.ReleasePacket(pkt)
		}
	}
	e.arm()
}

// After arms a timer that delivers a TTick carrying tag once the clock has
// moved d on.
func (e *Endpoint) After(d time.Duration, tag []byte) {
	e.w.arm(timer{at: e.w.now.Add(d), to: e.addr, tag: slices.Clone(tag)})
}

// Inject queues a packet to the endpoint itself, past the fault hooks.
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
// in request order, and drops the acks parked for addr.
func (e *Endpoint) CancelPeer(addr string) []transport.FailedSend { return e.p.Cancel(addr) }

// Stats is the protocol's part of a Node's Stats: the acked sends
// outstanding, retransmissions, duplicates dropped and give-ups.
func (e *Endpoint) Stats() transport.Stats { return e.p.Stats() }

// Close stops deliveries and ticks to the endpoint and releases what its
// protocol holds.
func (e *Endpoint) Close() {
	e.closed = true
	e.p.Close()
}
