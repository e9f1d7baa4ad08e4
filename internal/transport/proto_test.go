package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"time"

	"elga/internal/wire"
)

// The protocol core driven by hand: no goroutines, no sleeps, no clock. A
// seeded hand joins two or three protos by an in-memory wire and picks
// every event — a send, a delivery (in any order), a drop, a duplicate, the
// entity's ack, a cancel, a tick — checking the acked-PUSH contract after
// each.

// simWire is the hand-driven network: frames in flight and the protos they
// travel between.
type simWire struct {
	t      *testing.T
	rng    *rand.Rand
	now    time.Time
	chaos  bool // drops, duplicates, cancels, aborted sends, long ticks
	nodes  []*simNode
	byAddr map[string]int
	flight []simFrame
	sends  map[simKey]*simSend
	digest hash.Hash64 // every event and every frame, for the replay check
	event  int
}

type simFrame struct {
	to    int
	frame []byte
}

// simKey names an acked send by its sender's address and request ID.
type simKey struct {
	addr string
	req  uint32
}

// simSend is the model's record of one acked send.
type simSend struct {
	from, to  int
	delivered int    // times its packet reached the receiving entity
	resolved  string // "", "acked", "cancelled", "gave up" or "aborted"
}

// simNode is one Proto and the model of its entity.
type simNode struct {
	addr  string
	p     Proto
	held  []*wire.Packet  // delivered to the entity, not acked yet
	seen  map[simKey]bool // acked pushes the entity received
	acked map[simKey]bool // ... and acknowledged
	owed  map[simKey]bool // lazy acks parked: (receiver, request)
	out   TickOut
}

func newSimWire(t *testing.T, seed int64, chaos bool) *simWire {
	w := &simWire{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		now:    time.Unix(1000, 0),
		chaos:  chaos,
		byAddr: make(map[string]int),
		sends:  make(map[simKey]*simSend),
		digest: fnv.New64a(),
	}
	for i := 0; i < 2+w.rng.Intn(2); i++ {
		n := &simNode{
			addr:  fmt.Sprintf("sim://%d", i),
			seen:  make(map[simKey]bool),
			acked: make(map[simKey]bool),
			owed:  make(map[simKey]bool),
		}
		n.p = NewProto(n.addr)
		w.byAddr[n.addr] = i
		w.nodes = append(w.nodes, n)
	}
	return w
}

func (w *simWire) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("event %d: %s", w.event, fmt.Sprintf(format, args...))
}

func (w *simWire) note(format string, args ...any) {
	fmt.Fprintf(w.digest, format+"\n", args...)
}

// emit puts a frame node i wrote to addr on the wire.
func (w *simWire) emit(i int, addr string, frame []byte) {
	to, ok := w.byAddr[addr]
	if !ok {
		w.fatalf("%s wrote to unknown %q", w.nodes[i].addr, addr)
	}
	w.digest.Write(frame)
	w.flight = append(w.flight, simFrame{to, frame})
}

// unpark emits an ack that left node i's parking, which must have owed it.
func (w *simWire) unpark(i int, addr string, frame []byte) {
	key := simKey{addr, binary.LittleEndian.Uint32(frame[1:])}
	if !w.nodes[i].owed[key] {
		w.fatalf("%s sent %v a parked ack it never parked", w.nodes[i].addr, key)
	}
	delete(w.nodes[i].owed, key)
	w.emit(i, addr, frame)
}

var simTypes = []wire.Type{wire.TEdges, wire.TVertexMsgs, wire.TAdvance, wire.TReady, wire.TDirUpdate}

func (w *simWire) send() {
	i := w.rng.Intn(len(w.nodes))
	j := (i + 1 + w.rng.Intn(len(w.nodes)-1)) % len(w.nodes)
	n, to := w.nodes[i], w.nodes[j]
	typ := simTypes[w.rng.Intn(len(simTypes))]
	frame := wire.AppendFrameHeader(wire.GetFrame(64), typ, 0, n.addr)
	frame = binary.LittleEndian.AppendUint64(frame, w.rng.Uint64())
	req, err := n.p.Send(to.addr, frame, w.now)
	if err != nil {
		w.fatalf("send: %v", err)
	}
	key := simKey{n.addr, req}
	if w.sends[key] != nil {
		w.fatalf("request ID %d reused by %s", req, n.addr)
	}
	w.sends[key] = &simSend{from: i, to: j}
	w.note("send %d->%d %s req=%d", i, j, typ, req)
	if w.chaos && w.rng.Intn(20) == 0 {
		// The shell could not hand the frame to a peer.
		n.p.Complete(req)
		w.sends[key].resolved = "aborted"
		wire.ReleaseFrame(frame)
		return
	}
	// The acks parked for the receiver ride in front of the frame, as the
	// shell's write does it.
	for _, ack := range n.p.TakeAcks(to.addr, nil) {
		w.unpark(i, to.addr, ack)
	}
	w.emit(i, to.addr, frame)
}

func (w *simWire) deliver(k int) {
	f := w.flight[k]
	w.flight = slices.Delete(w.flight, k, k+1)
	n := w.nodes[f.to]
	pkt, err := wire.UnmarshalPacket(f.frame)
	if err != nil {
		w.fatalf("a frame on the wire does not parse: %v", err)
	}
	w.note("deliver %s -> %d", pkt.Type, f.to)
	if pkt.Type == wire.TAck {
		key := simKey{n.addr, pkt.Req}
		rec := w.sends[key]
		_, known := n.p.outstanding[pkt.Req]
		v, reack := n.p.FrameIn(pkt)
		if reack != nil {
			w.fatalf("an ack was answered with an ack")
		}
		if !known {
			if v != InDrop {
				w.fatalf("an ack for no outstanding send (%+v) was not dropped: verdict %d", rec, v)
			}
			return
		}
		switch {
		case rec == nil || rec.resolved != "":
			w.fatalf("send %v completed twice (%+v)", key, rec)
		case !w.nodes[rec.to].acked[key]:
			w.fatalf("send %v was acknowledged before its entity acked it", key)
		case v != InDeliver:
			w.fatalf("the ack of an outstanding send: verdict %d", v)
		}
		rec.resolved = "acked"
		return
	}
	key := simKey{pkt.From, pkt.Req}
	seen, acked := n.seen[key], n.acked[key]
	v, reack := n.p.FrameIn(pkt)
	if !seen {
		if v != InDeliver || reack != nil {
			w.fatalf("the first copy of %v: verdict %d, re-ack %v", key, v, reack != nil)
		}
		n.seen[key] = true
		n.held = append(n.held, pkt)
		rec := w.sends[key]
		if rec == nil {
			w.fatalf("%v delivered, never sent", key)
		}
		if rec.delivered++; rec.delivered > 1 {
			w.fatalf("send %v reached its entity twice", key)
		}
		return
	}
	switch {
	case v != InDrop:
		w.fatalf("a duplicate of %v was delivered (verdict %d)", key, v)
	case !acked && reack != nil:
		w.fatalf("a duplicate of %v was acked before its entity acked the original", key)
	case acked && reack == nil:
		w.fatalf("a duplicate of %v, acked by its entity, was not re-acked at once", key)
	}
	if reack != nil {
		w.emit(f.to, pkt.From, reack)
	}
}

func (w *simWire) ack(i, k int) {
	n := w.nodes[i]
	pkt := n.held[k]
	n.held = slices.Delete(n.held, k, k+1)
	key := simKey{pkt.From, pkt.Req}
	n.acked[key] = true
	w.note("ack %d %s req=%d", i, pkt.Type, pkt.Req)
	frame := n.p.Ack(pkt)
	if wire.LazyAck(pkt.Type) != (frame == nil) {
		w.fatalf("the ack of a %s: frame %v", pkt.Type, frame != nil)
	}
	if frame == nil {
		n.owed[key] = true
		return
	}
	w.emit(i, pkt.From, frame)
}

func (w *simWire) cancel(i, j int) {
	n, gone := w.nodes[i], w.nodes[j]
	w.note("cancel %d %d", i, j)
	var want []uint32
	for key, rec := range w.sends {
		if rec.from == i && rec.to == j && rec.resolved == "" {
			want = append(want, key.req)
		}
	}
	slices.Sort(want)
	failed := n.p.Cancel(gone.addr)
	var got []uint32
	for _, f := range failed {
		got = append(got, f.Req)
		w.sends[simKey{n.addr, f.Req}].resolved = "cancelled"
		wire.ReleaseFrame(f.Frame)
	}
	if !slices.Equal(got, want) {
		w.fatalf("cancel gave back requests %v, want %v", got, want)
	}
	for key := range n.owed {
		if key.addr == gone.addr {
			delete(n.owed, key)
		}
	}
	for _, a := range n.p.parked {
		if a.addr == gone.addr {
			w.fatalf("an ack stays parked for cancelled %s", gone.addr)
		}
	}
}

func (w *simWire) tick(d time.Duration) {
	w.now = w.now.Add(d)
	w.note("tick +%v", d)
	for i, n := range w.nodes {
		before := make(map[uint32]pendingAck, len(n.p.outstanding))
		for req, pa := range n.p.outstanding {
			before[req] = pa
		}
		gaveUp := n.p.stats.ackGiveUps.Load()
		n.p.Tick(w.now, &n.out)
		gaveUp = n.p.stats.ackGiveUps.Load() - gaveUp
		for _, o := range n.out.Writes {
			if wire.FrameType(o.Frame) == wire.TAck {
				w.unpark(i, o.Addr, o.Frame)
				continue
			}
			req := binary.LittleEndian.Uint32(o.Frame[1:])
			pa, ok := before[req]
			if !ok || pa.nextAt.After(w.now) || !bytes.Equal(o.Frame, pa.frame) {
				w.fatalf("resent request %d before its RTO ran out, or not verbatim", req)
			}
			w.emit(i, o.Addr, o.Frame)
		}
		if len(n.owed) > 0 || len(n.p.parked) > 0 {
			w.fatalf("%d acks owed by %s are still parked after its tick", len(n.owed), n.addr)
		}
		var given []uint32
		for req := range before {
			if _, ok := n.p.outstanding[req]; !ok {
				given = append(given, req)
			}
		}
		slices.Sort(given)
		if uint64(len(given)) != gaveUp {
			w.fatalf("%d sends left the table, %d counted as given up", len(given), gaveUp)
		}
		for _, req := range given {
			rec := w.sends[simKey{n.addr, req}]
			if rec.resolved != "" {
				w.fatalf("send %d given up after it was %s", req, rec.resolved)
			}
			rec.resolved = "gave up"
		}
		var synth []uint32
		for _, pkt := range n.out.Deliver {
			if pkt.Type != wire.TAck || pkt.From != w.nodes[w.sends[simKey{n.addr, pkt.Req}].to].addr {
				w.fatalf("a synthesized ack %+v", pkt)
			}
			synth = append(synth, pkt.Req)
		}
		if !slices.Equal(synth, given) {
			w.fatalf("gave up %v, synthesized acks for %v", given, synth)
		}
	}
}

// step picks and runs one event.
func (w *simWire) step() {
	w.event++
	r := w.rng.Intn(100)
	switch {
	case r < 20:
		w.send()
	case r < 55:
		if len(w.flight) > 0 {
			w.deliver(w.rng.Intn(len(w.flight)))
		}
	case r < 60 && w.chaos:
		if len(w.flight) > 0 {
			k := w.rng.Intn(len(w.flight))
			w.note("drop %d", k)
			w.flight = slices.Delete(w.flight, k, k+1)
		}
	case r < 65 && w.chaos:
		if len(w.flight) > 0 {
			f := w.flight[w.rng.Intn(len(w.flight))]
			w.note("duplicate")
			w.flight = append(w.flight, simFrame{f.to, slices.Clone(f.frame)})
		}
	case r < 67 && w.chaos:
		i := w.rng.Intn(len(w.nodes))
		w.cancel(i, (i+1+w.rng.Intn(len(w.nodes)-1))%len(w.nodes))
	case r < 88:
		i := w.rng.Intn(len(w.nodes))
		if n := w.nodes[i]; len(n.held) > 0 {
			w.ack(i, w.rng.Intn(len(n.held)))
		}
	default:
		if w.chaos {
			w.tick(time.Duration(1+w.rng.Intn(400)) * time.Millisecond)
			return
		}
		// Fault-free: everything in flight lands and is acked before the
		// next tick, at most TickPeriod later — acks well inside the RTO.
		w.settle()
		w.tick(time.Duration(1+w.rng.Intn(int(TickPeriod/time.Millisecond))) * time.Millisecond)
	}
}

// settle delivers everything in flight and acks everything delivered.
func (w *simWire) settle() {
	for len(w.flight) > 0 || w.anyHeld() {
		for len(w.flight) > 0 {
			w.deliver(w.rng.Intn(len(w.flight)))
		}
		for i, n := range w.nodes {
			for len(n.held) > 0 {
				w.ack(i, w.rng.Intn(len(n.held)))
			}
		}
	}
}

func (w *simWire) anyHeld() bool {
	for _, n := range w.nodes {
		if len(n.held) > 0 {
			return true
		}
	}
	return false
}

// run plays events, then lets the wire go quiet with no more faults, and
// checks that every send ended exactly one way. It returns the run's
// digest.
func (w *simWire) run(events int) uint64 {
	for i := 0; i < events; i++ {
		w.step()
	}
	w.chaos = false
	for round := 0; ; round++ {
		w.settle()
		busy := false
		for _, n := range w.nodes {
			busy = busy || len(n.p.outstanding) > 0
		}
		if !busy {
			break
		}
		if round == 1000 {
			w.fatalf("sends still outstanding after %d quiet ticks", round)
		}
		w.tick(TickPeriod)
	}
	for key, rec := range w.sends {
		switch rec.resolved {
		case "acked":
			if rec.delivered != 1 {
				w.fatalf("send %v acked after %d deliveries", key, rec.delivered)
			}
		case "cancelled", "gave up":
		case "aborted":
			if rec.delivered != 0 {
				w.fatalf("an aborted send %v was delivered", key)
			}
		default:
			w.fatalf("send %v never completed, was never given back or given up", key)
		}
	}
	return w.digest.Sum64()
}

// TestProtoProperties: for each seed, a chaotic schedule (drops,
// duplicates, reordering, late acks, cancels, ticks up to 400 ms apart)
// and a fault-free one (every ack inside the RTO). Every acked send reaches
// its entity exactly once, or is given back by cancel, or is given up; a
// duplicate is re-acked at once if and only if the entity acked the
// original; a parked ack leaves by the next tick unless cancel drops it;
// cancel gives back exactly the sends outstanding to its address; acks
// for those are ignored; and a fault-free schedule retransmits nothing.
// Each seed is a subtest: a failure names it, and -run replays it.
func TestProtoProperties(t *testing.T) {
	const seeds, events = 64, 600
	for _, mode := range []string{"chaos", "clean"} {
		t.Run(mode, func(t *testing.T) {
			var sends, retransmits, dups, giveUps, cancels uint64
			ran := 0 // -run may pick one seed
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					ran++
					defer func() {
						if t.Failed() {
							t.Logf("replay: go test -run 'TestProtoProperties/%s/seed=%d$' ./internal/transport/", mode, seed)
						}
					}()
					w := newSimWire(t, seed, mode == "chaos")
					digest := w.run(events)
					for _, n := range w.nodes {
						st := n.p.Stats()
						retransmits += st.Retransmits
						dups += st.DuplicatesDropped
						giveUps += st.AckGiveUps
						if mode == "clean" && st.Retransmits != 0 {
							t.Fatalf("%s retransmitted %d times on a fault-free schedule", n.addr, st.Retransmits)
						}
					}
					for _, rec := range w.sends {
						sends++
						if rec.resolved == "cancelled" {
							cancels++
						}
					}
					if seed <= 4 {
						if again := newSimWire(t, seed, mode == "chaos").run(events); again != digest {
							t.Fatalf("seed %d replayed differently: digest %x, then %x", seed, digest, again)
						}
					}
				})
			}
			t.Logf("%s: %d sends, %d retransmits, %d duplicates dropped, %d given up, %d given back by cancel",
				mode, sends, retransmits, dups, giveUps, cancels)
			if mode == "chaos" && ran == seeds && !t.Failed() && (retransmits == 0 || dups == 0 || giveUps == 0 || cancels == 0) {
				t.Errorf("the schedules never exercised some path")
			}
		})
	}
}

// TestProtoGivesUpAfterTheBudget: an acked send nobody acknowledges is
// resent at 200, 600, 1 400, 3 000, 5 000 and 7 000 ms — the RTO doubling
// to its 2 s cap — and given up at 9 000 ms: its copy released once, one
// give-up counted, a TAck synthesized for the entity, and a real ack
// arriving after that ignored.
func TestProtoGivesUpAfterTheBudget(t *testing.T) {
	// Every give-up notifies its entity with a synthesized TAck.
	t.Run("notify=true", func(t *testing.T) {
		const to = "sim://b"
		marker := []byte("the one acked send")
		releases := 0
		t.Cleanup(func() { releaseFrame = wire.ReleaseFrame })
		releaseFrame = func(f []byte) {
			if bytes.HasSuffix(f, marker) {
				releases++
			}
			wire.ReleaseFrame(f)
		}
		p := NewProto("sim://a")
		start := time.Unix(1000, 0)
		frame := append(wire.AppendFrameHeader(wire.GetFrame(64), wire.TEdges, 0, "sim://a"), marker...)
		req, err := p.Send(to, frame, start)
		if err != nil {
			t.Fatal(err)
		}
		var out TickOut
		var resends []time.Duration
		gaveUpAt := time.Duration(-1)
		for ms := 1; ms <= 10000; ms++ {
			p.Tick(start.Add(time.Duration(ms)*time.Millisecond), &out)
			for _, w := range out.Writes {
				if w.Addr != to || !bytes.Equal(w.Frame, frame) {
					t.Fatalf("at %d ms: wrote %q to %s, want the send verbatim to %s", ms, w.Frame, w.Addr, to)
				}
				resends = append(resends, time.Duration(ms)*time.Millisecond)
			}
			if p.stats.ackGiveUps.Load() > 0 && gaveUpAt < 0 {
				gaveUpAt = time.Duration(ms) * time.Millisecond
				if len(out.Deliver) != 1 {
					t.Fatalf("%d acks synthesized, want 1", len(out.Deliver))
				}
				if pkt := out.Deliver[0]; pkt.Type != wire.TAck || pkt.Req != req || pkt.From != to {
					t.Errorf("synthesized %s req=%d from %s, want an ack for %d from %s", pkt.Type, pkt.Req, pkt.From, req, to)
				}
			} else if len(out.Deliver) > 0 {
				t.Fatalf("at %d ms: an ack synthesized with no give-up", ms)
			}
		}
		want := []time.Duration{200, 600, 1400, 3000, 5000, 7000}
		for i := range want {
			want[i] *= time.Millisecond
		}
		if !slices.Equal(resends, want) {
			t.Errorf("resent at %v, want %v", resends, want)
		}
		if gaveUpAt != 9000*time.Millisecond {
			t.Errorf("gave up at %v, want 9s", gaveUpAt)
		}
		st := p.Stats()
		if st.Retransmits != 6 {
			t.Errorf("%d retransmits counted, want 6", st.Retransmits)
		}
		if st.AckGiveUps != 1 || releases != 1 || st.OutstandingAcks != 0 {
			t.Errorf("after the give-up: %d give-ups, copy released %d times, %d outstanding; want 1, 1, 0", st.AckGiveUps, releases, st.OutstandingAcks)
		}
		pkt, err := wire.UnmarshalPacket(wire.AppendFrameHeader(nil, wire.TAck, req, to))
		if err != nil {
			t.Fatal(err)
		}
		if v, reack := p.FrameIn(pkt); v != InDrop || reack != nil || releases != 1 {
			t.Errorf("the late ack: verdict %d, re-ack %v, %d releases", v, reack != nil, releases)
		}
	})
}
