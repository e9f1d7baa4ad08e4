package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elga/internal/wire"
)

// One barrier hop is one write, one wake-up and one read. These tests pin
// the four pieces that make it so: read bursts, acks that ride the next
// frame, the direct write, and the publisher's fixed fan-out order.

// countedConn counts the Read calls a tcpConn issues on its socket.
type countedConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// tcpLoopback returns a dialled tcpConn and the accepted side of the same
// socket pair with its reads counted.
func tcpLoopback(t *testing.T) (Conn, *tcpConn, *countedConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialled, err := NewTCP().Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sock, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	counted := &countedConn{Conn: sock}
	accepted := &tcpConn{c: counted}
	t.Cleanup(func() { dialled.Close(); accepted.Close() })
	return dialled, accepted, counted
}

func TestTCPRecvReadsABurstAtATime(t *testing.T) {
	dialled, accepted, counted := tcpLoopback(t)
	const n = 16
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 60) // a barrier frame's size
	}
	if err := dialled.(BatchConn).SendBatch(frames); err != nil {
		t.Fatal(err)
	}
	// Loopback delivers one small writev whole; let it land before reading.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		f, err := accepted.Recv()
		if err != nil || !bytes.Equal(f, frames[i]) {
			t.Fatalf("frame %d: %v, %d bytes", i, err, len(f))
		}
		wire.ReleaseFrame(f)
	}
	if got := counted.reads.Load(); got > 2 {
		t.Errorf("%d frames in one vectored write took %d reads, want <= 2", n, got)
	}

	// A frame larger than the read buffer round-trips, and so does a small
	// one coalesced behind it.
	big := make([]byte, 3*tcpBurst+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := dialled.(BatchConn).SendBatch([][]byte{big, frames[3]}); err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]byte{big, frames[3]} {
		f, err := accepted.Recv()
		if err != nil || !bytes.Equal(f, want) {
			t.Fatalf("after a %d-byte frame: %v, got %d bytes, want %d", len(big), err, len(f), len(want))
		}
		wire.ReleaseFrame(f)
	}
}

// dribble is a socket that returns at most max bytes per Read.
type dribble struct {
	net.Conn
	r   io.Reader
	max int
}

func (d *dribble) Read(p []byte) (int, error) {
	if len(p) > d.max {
		p = p[:d.max]
	}
	return d.r.Read(p)
}

func TestTCPRecvFrameSplitAcrossReads(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; i < 5; i++ {
		f := bytes.Repeat([]byte{byte('a' + i)}, 10+i*37)
		want = append(want, f)
		stream = append(binary.LittleEndian.AppendUint32(stream, uint32(len(f))), f...)
	}
	for _, max := range []int{1, 3, 7, 64} {
		c := &tcpConn{c: &dribble{r: bytes.NewReader(stream), max: max}}
		for i, w := range want {
			f, err := c.Recv()
			if err != nil || !bytes.Equal(f, w) {
				t.Fatalf("%d-byte reads, frame %d: %v, got %q", max, i, err, f)
			}
		}
		if _, err := c.Recv(); err == nil {
			t.Fatalf("%d-byte reads: a frame past the end of the stream", max)
		}
	}
	// A corrupt length prefix is still an error, not an allocation.
	bad := binary.LittleEndian.AppendUint32(nil, maxTCPFrame+1)
	c := &tcpConn{c: &dribble{r: bytes.NewReader(append(bad, stream...)), max: 64}}
	if f, err := c.Recv(); err == nil {
		t.Fatalf("oversized length prefix accepted: %d bytes", len(f))
	}
}

// recvType waits for the next inbox packet that is not a TAck (the ack of
// each of n's acked sends reaches its inbox too) and checks its type.
func recvType(t *testing.T, n *Node, typ wire.Type) *wire.Packet {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case pkt := <-n.Inbox():
			if pkt.Type == wire.TAck {
				wire.ReleasePacket(pkt)
				continue
			}
			if pkt.Type != typ {
				t.Fatalf("got %s, want %s", pkt.Type, typ)
			}
			return pkt
		case <-timeout:
			t.Fatalf("no %s arrived", typ)
			return nil
		}
	}
}

// TestBarrierAcksRideTheNextFrame runs the barrier's exchange between a
// coordinator and an agent: Advance out, Ready back, each acknowledged after
// processing. Neither ack is a write of its own — the Ready carries the
// Advance's, the next Advance carries the Ready's.
func TestBarrierAcksRideTheNextFrame(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			coord, agent := newPair(t, nw)
			const steps = 200
			for i := 0; i < steps; i++ {
				if err := sendAcked(coord, agent.Addr(), wire.TAdvance, nil); err != nil {
					t.Fatal(err)
				}
				adv := recvType(t, agent, wire.TAdvance)
				agent.Ack(adv)
				wire.ReleasePacket(adv)
				if err := sendAcked(agent, coord.Addr(), wire.TReady, nil); err != nil {
					t.Fatal(err)
				}
				vote := recvType(t, coord, wire.TReady)
				coord.Ack(vote)
				wire.ReleasePacket(vote)
			}
			// The last vote's ack has nothing to ride; a tick sends it.
			if err := awaitAcks(agent, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := awaitAcks(coord, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			// A tick that lands inside an exchange sends a parked ack by
			// itself, so allow a few; acks that never ride would double the
			// writes.
			for who, n := range map[string]*Node{"coordinator": coord, "agent": agent} {
				// A write is counted once the conn returns from it, which
				// under load can be after the peer has read it: the last
				// ack's count may land after the Flush it released.
				for deadline := time.Now().Add(time.Second); n.Stats().FramesOut < 2*steps && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				s := n.Stats()
				if s.FramesOut != 2*steps {
					t.Errorf("%s sent %d frames, want %d data + %d acks", who, s.FramesOut, steps, steps)
				}
				if s.ConnWrites > steps+steps/10 {
					t.Errorf("%s: %d conn writes for %d data frames: acks travel alone", who, s.ConnWrites, steps)
				}
				if s.Retransmits != 0 {
					t.Errorf("%s retransmitted %d times", who, s.Retransmits)
				}
			}
		})
	}
}

// TestParkedAckLeavesOnTheTick: with no return traffic the ack still beats
// the sender's RTO, and no other kind of ack is ever parked.
func TestParkedAckLeavesOnTheTick(t *testing.T) {
	a, b := newPair(t, NewInproc())
	if err := sendAcked(a, b.Addr(), wire.TAdvance, nil); err != nil {
		t.Fatal(err)
	}
	pkt := recvType(t, b, wire.TAdvance)
	start := time.Now()
	b.Ack(pkt)
	if err := awaitAcks(a, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 2*TickPeriod+ackRTO/4 {
		t.Errorf("the parked ack took %v, want within two %v ticks", waited, TickPeriod)
	}
	if s := a.Stats(); s.Retransmits != 0 {
		t.Errorf("holding the ack cost %d retransmissions", s.Retransmits)
	}
	// An ack that drains an ack group leaves at once.
	if err := sendAcked(a, b.Addr(), wire.TVertexMsgs, nil); err != nil {
		t.Fatal(err)
	}
	b.Ack(recvType(t, b, wire.TVertexMsgs))
	if parked := parkedAcks(b, a.Addr()); parked != 0 {
		t.Errorf("a %s ack was held back", wire.TVertexMsgs)
	}
	if err := awaitAcks(a, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestCancelPeerDropsParkedAcks(t *testing.T) {
	a, b := newPair(t, NewInproc())
	if err := sendAcked(a, b.Addr(), wire.TAdvance, nil); err != nil {
		t.Fatal(err)
	}
	b.Ack(recvType(t, b, wire.TAdvance))
	if parked := parkedAcks(b, a.Addr()); parked != 1 {
		t.Fatalf("%d acks parked, want 1", parked)
	}
	b.CancelPeer(a.Addr())
	left := parkedAcks(b, a.Addr())
	if left != 0 || parkedAcks(b, a.Addr()) != 0 {
		t.Errorf("CancelPeer left %d acks parked for a peer presumed dead", left)
	}
}

// parkedAcks is how many acks wait in n's protocol for a frame to addr to
// ride.
func parkedAcks(n *Node, addr string) int {
	n.protoMu.Lock()
	defer n.protoMu.Unlock()
	parked := 0
	for _, a := range n.proto.parked {
		if a.addr == addr {
			parked++
		}
	}
	return parked
}

// numbered is a test frame payload: sender, sequence number, and a body
// derived from both so a byte out of place shows.
func numbered(dst []byte, sender, seq, size int) []byte {
	dst = binary.LittleEndian.AppendUint32(append(dst, byte(sender)), uint32(seq))
	for i := 0; i < size; i++ {
		dst = append(dst, byte(sender+seq+i))
	}
	return dst
}

func checkNumbered(payload []byte, next []int) error {
	if len(payload) < 5 {
		return fmt.Errorf("short payload: %d bytes", len(payload))
	}
	sender, seq := int(payload[0]), int(binary.LittleEndian.Uint32(payload[1:]))
	if sender >= len(next) || seq != next[sender] {
		return fmt.Errorf("sender %d: got frame %d, want %d", sender, seq, next[sender])
	}
	next[sender]++
	for i, b := range payload[5:] {
		if b != byte(sender+seq+i) {
			return fmt.Errorf("sender %d frame %d: byte %d corrupt", sender, seq, i)
		}
	}
	return nil
}

// TestDirectWriteKeepsPerSenderOrder: four goroutines send numbered frames
// to one peer whose small inbox keeps backing the pipeline up, so sends
// alternate between the sender's own write and the writer goroutine's
// (and, over TCP, short writes the writer finishes). Every sender's frames
// arrive in order and intact. Run with -race.
func TestDirectWriteKeepsPerSenderOrder(t *testing.T) {
	const senders, per = 4, 10000
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			a, err := NewNode(nw, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := NewNode(nw, "", 64)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						frame := numbered(a.NewFrameHint(wire.TVertexMsgs, 1100), s, i, 100+i%1000)
						if err := a.SendFrame(b.Addr(), frame); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			next := make([]int, senders)
			for got := 0; got < senders*per; got++ {
				select {
				case pkt := <-b.Inbox():
					if err := checkNumbered(pkt.Payload, next); err != nil {
						t.Fatal(err)
					}
					wire.ReleasePacket(pkt)
				case <-time.After(20 * time.Second):
					t.Fatalf("received %d/%d frames", got, senders*per)
				}
				if got%4096 == 0 {
					time.Sleep(2 * time.Millisecond) // let the pipeline back up
				}
			}
			wg.Wait()
			if s := a.Stats(); s.FramesOut != senders*per || s.ConnWrites == s.FramesOut {
				t.Errorf("%d frames in %d writes: the writer goroutine never coalesced a backlog", s.FramesOut, s.ConnWrites)
			}
		})
	}
}

// deafPeer accepts one TCP conn and reads nothing from it until told to.
func deafPeer(t *testing.T) (addr string, accepted <-chan net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 1)
	go func() {
		defer l.Close()
		if c, err := l.Accept(); err == nil {
			ch <- c
		}
	}()
	return l.Addr().String(), ch
}

// TestDirectWriteNeverWaitsOnADeafPeer: a TCP peer that accepts and never
// reads. Sends return without blocking the caller — what the socket buffer
// does not take is the writer goroutine's to wait on — and a stall is counted
// only once the queue is full.
func TestDirectWriteNeverWaitsOnADeafPeer(t *testing.T) {
	a, err := NewNode(NewTCP(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	addr, accepted := deafPeer(t)
	const big, bigSize = 2000, 64 << 10
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < big; i++ {
			frame := a.NewFrameHint(wire.TEdges, bigSize)
			if err := a.SendFrame(addr, append(frame, make([]byte, bigSize)...)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sends to a peer that never reads blocked the caller")
	}
	if s := a.Stats(); s.EnqueueStalls != 0 {
		t.Fatalf("%d stalls with %d of %d frames queued or being written", s.EnqueueStalls, a.Stats().QueueDepth, peerQueueDepth)
	}
	// Fill the rest of the queue: the send that finds peerQueueDepth frames
	// queued or in the writer's hands stalls.
	go func() {
		for {
			if err := a.SendFrame(addr, a.NewFrame(wire.TReport)); err != nil {
				sent <- err
				return
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	for a.Stats().EnqueueStalls == 0 {
		select {
		case err := <-sent:
			t.Fatalf("sender stopped before the queue filled: %v", err)
		case <-deadline:
			t.Fatalf("no stall with %d frames queued", a.Stats().QueueDepth)
		case <-time.After(time.Millisecond):
		}
	}
	// QueueDepth counts the writer's frames too: the one write blocked on
	// the deaf socket and the rest of the queue it took.
	if depth := a.Stats().QueueDepth; depth != peerQueueDepth {
		t.Errorf("stalled with %d frames queued or being written, want the limit, %d", depth, peerQueueDepth)
	}
	(<-accepted).Close()
	a.Close()
	<-sent // the stalled sender is released by Close
}

// TestWriterFinishesAShortDirectWrite: small frames go straight to the
// socket until its buffer fills; the write that does not fit — usually in
// part — is finished by the writer goroutine ahead of everything queued
// behind it, so the stream the peer reads later is whole and in order.
func TestWriterFinishesAShortDirectWrite(t *testing.T) {
	a, err := NewNode(NewTCP(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addr, accepted := deafPeer(t)
	const size = 3000 // under tcpBurst: every frame is tried directly
	sent := 0
	send := func() {
		if err := a.SendFrame(addr, numbered(a.NewFrameHint(wire.TVertexMsgs, size+5), 0, sent, size)); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	deadline := time.Now().Add(30 * time.Second)
	idle := func() bool { return a.Stats().FramesOut == uint64(sent) }
	for send(); !idle(); time.Sleep(time.Millisecond) { // the first frame dials
		if time.Now().After(deadline) {
			t.Fatal("the writer never dialled")
		}
	}
	for idle() { // every send is the caller's own write, until one does not fit
		if send(); time.Now().After(deadline) {
			t.Fatalf("the socket took %d frames and never filled", sent)
		}
	}
	for i := 0; i < 200; i++ { // and some more behind the short write
		send()
	}
	sock := <-accepted
	defer sock.Close()
	c := &tcpConn{c: sock}
	next := []int{0}
	var pkt wire.Packet
	for i := 0; i < sent; i++ {
		_ = sock.SetReadDeadline(time.Now().Add(20 * time.Second))
		frame, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d/%d: %v", i, sent, err)
		}
		if err := wire.UnmarshalPacketInto(&pkt, frame, nil); err != nil {
			t.Fatalf("frame %d/%d: %v", i, sent, err)
		}
		if err := checkNumbered(pkt.Payload, next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPublisherFansOutInAddressOrder: every publish reaches the subscribers
// in the same order, whatever order they subscribed in, and building the
// fan-out costs no allocation beyond the frames.
func TestPublisherFansOutInAddressOrder(t *testing.T) {
	nw := NewInproc()
	pubNode, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pubNode.Close()
	pub := NewPublisher(pubNode)
	subs := make(map[string]*Node)
	for _, name := range []string{"inproc://c", "inproc://a", "inproc://d", "inproc://b"} {
		n, err := NewNode(nw, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		subs[name] = n
		pub.Subscribe(name, wire.TReport)
	}
	pub.Subscribe("inproc://e", wire.TDirUpdate) // filtered out below
	pub.Unsubscribe("inproc://e")
	want := []string{"inproc://a", "inproc://b", "inproc://c", "inproc://d"}
	if got := subscribers(pub); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("subscribers %v, want %v", got, want)
	}
	// The order of the sends is the order in which the peers are created.
	pub.Publish(wire.TReport, []byte("x"))
	for _, name := range want {
		wire.ReleasePacket(recvType(t, subs[name], wire.TReport))
	}
	publish := func() {
		pub.Publish(wire.TReport, []byte("x"))
		for _, name := range want {
			wire.ReleasePacket(<-subs[name].Inbox())
		}
	}
	for i := 0; i < 50; i++ {
		publish() // warm the pools and interners
	}
	if raceEnabled {
		return // the detector's own allocations drown the one looked for
	}
	// The receive path's pooled packets may miss now and then; a fan-out
	// slice per publish would be one allocation every time.
	if allocs := testing.AllocsPerRun(200, publish); allocs >= 1 {
		t.Errorf("publishing to %d subscribers allocates %.2f times", len(want), allocs)
	}
}
