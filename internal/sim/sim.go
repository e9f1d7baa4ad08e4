// Package sim runs a whole ElGA cluster on one goroutine. A World holds
// in-memory endpoints (transport.Endpoint) for a master, directories,
// agents, streamers and clients built over them, and on the caller's
// goroutine delivers their frames to each receiver's Handle and fires their
// After timers, each at its due time on a virtual clock that moves only to
// the next of them. A frame is due when it is sent, or a seeded delay later
// (Chaos); each link from one endpoint to another stays FIFO, as a
// connection is, while different links reorder.
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
// Frames are lost, duplicated or delayed only by a fault: a one-shot hook
// that drops or duplicates the next frame of a type to an address, or a
// seeded rate or delay for every frame (Chaos).
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
	now      time.Time
	eps      map[string]*Endpoint
	events   []event // in the order they are due
	enqueued uint64
	faults   []fault
	sent     map[sentKey]int
	// last is when the last frame sent on each link is due.
	last map[link]time.Time
	// chaos draws the per-frame faults; nil without Chaos.
	chaos     *rand.Rand
	drop, dup float64
	delay     time.Duration
}

// event is a frame in flight or an armed timer. Events run in the order of
// at, a frame before a timer due at the same instant, then in the order
// they were enqueued.
type event struct {
	at    time.Time
	timer int // 0 for a frame, 1 for a timer
	seq   uint64
	to    string
	frame []byte // a frame's, finished
	tag   []byte // a timer's
	proto bool   // the endpoint's protocol tick, not a TTick for Handle
}

type link struct{ from, to string }

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
	return &World{
		now: time.Unix(1<<30, 0), eps: make(map[string]*Endpoint),
		sent: make(map[sentKey]int), last: make(map[link]time.Time),
	}
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

// Chaos discards each frame sent from now on with probability drop,
// delivers it twice with probability duplicate and, with a delay above 0,
// makes it due a time drawn uniformly from [0, delay) after it was sent, or
// with the last frame on its link if that is due later. The draws come in
// send order from one source seeded with seed; a frame a one-shot hook
// takes draws nothing.
func (w *World) Chaos(seed int64, drop, duplicate float64, delay time.Duration) {
	w.chaos, w.drop, w.dup, w.delay = rand.New(rand.NewSource(seed)), drop, duplicate, delay
}

// Now reads the virtual clock.
func (w *World) Now() time.Time { return w.now }

// Sent counts the frames of type typ sent from addr, dropped ones included.
func (w *World) Sent(from string, typ wire.Type) int { return w.sent[sentKey{from, typ}] }

// send puts a finished frame in flight, through the fault hooks: due after
// its delay, and no earlier than the last frame on its link.
func (w *World) send(from, to string, frame []byte) {
	typ := wire.FrameType(frame)
	w.sent[sentKey{from, typ}]++
	drop, dup, delay := w.fault(typ, to)
	if drop {
		wire.ReleaseFrame(frame)
		return
	}
	at := w.now.Add(delay)
	if last := w.last[link{from, to}]; at.Before(last) {
		at = last
	}
	w.last[link{from, to}] = at
	if dup {
		w.enqueue(event{at: at, to: to, frame: append(wire.GetFrame(len(frame)), frame...)})
	}
	w.enqueue(event{at: at, to: to, frame: frame})
}

// fault decides a frame's fate: the first one-shot hook for its type and
// address, which it uses up, else the chaos draws.
func (w *World) fault(typ wire.Type, to string) (drop, dup bool, delay time.Duration) {
	for i, f := range w.faults {
		if f.typ == typ && f.to == to {
			w.faults = slices.Delete(w.faults, i, i+1)
			return !f.dup, f.dup, 0
		}
	}
	if w.chaos == nil {
		return false, false, 0
	}
	drop = w.chaos.Float64() < w.drop
	dup = w.chaos.Float64() < w.dup
	if w.delay > 0 {
		delay = time.Duration(w.chaos.Int63n(int64(w.delay)))
	}
	return drop, dup, delay
}

// step delivers the frame or fires the timer due first, moving the clock to
// it. It reports false when there is neither.
func (w *World) step() bool {
	if len(w.events) == 0 {
		return false
	}
	ev := w.events[0]
	w.events = w.events[1:]
	w.now = ev.at
	switch e := w.eps[ev.to]; {
	case ev.timer == 0:
		w.deliver(ev.to, ev.frame)
	case e == nil || e.closed:
	case ev.proto:
		e.tick()
	default:
		w.deliver(ev.to, e.finished(wire.TTick, ev.tag))
	}
	return true
}

// enqueue inserts ev among the events in the order they are due.
func (w *World) enqueue(ev event) {
	ev.seq = w.enqueued
	w.enqueued++
	i, _ := slices.BinarySearchFunc(w.events, ev, func(a, b event) int {
		return cmp.Or(a.at.Compare(b.at), cmp.Compare(a.timer, b.timer), cmp.Compare(a.seq, b.seq))
	})
	w.events = slices.Insert(w.events, i, ev)
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
		if len(w.events) > 0 && w.events[0].at.After(end) {
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
	e.w.enqueue(event{at: e.w.now.Add(transport.TickPeriod), timer: 1, to: e.addr, proto: true})
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
	e.w.enqueue(event{at: e.w.now.Add(d), timer: 1, to: e.addr, tag: slices.Clone(tag)})
}

// Inject queues a packet to the endpoint itself, due now, past the fault
// hooks.
func (e *Endpoint) Inject(typ wire.Type, payload []byte) error {
	e.w.enqueue(event{at: e.w.now, to: e.addr, frame: e.finished(typ, payload)})
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
