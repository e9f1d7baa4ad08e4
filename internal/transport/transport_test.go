package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"elga/internal/wire"
)

func networks(t *testing.T) map[string]Network {
	t.Helper()
	return map[string]Network{"inproc": NewInproc(), "tcp": NewTCP()}
}

func TestConnSendRecv(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			l, err := nw.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			done := make(chan []byte, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				f, err := c.Recv()
				if err != nil {
					return
				}
				done <- f
				_ = c.Send([]byte("pong"))
			}()
			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if got := string(<-done); got != "ping" {
				t.Fatalf("server got %q", got)
			}
			reply, err := c.Recv()
			if err != nil || string(reply) != "pong" {
				t.Fatalf("reply %q err %v", reply, err)
			}
		})
	}
}

func TestDialUnknownAddressFails(t *testing.T) {
	if _, err := NewInproc().Dial("inproc://nowhere"); err == nil {
		t.Error("inproc dial to unknown address succeeded")
	}
}

func TestInprocNamespacesIsolated(t *testing.T) {
	a, b := NewInproc(), NewInproc()
	l, err := a.Listen("inproc://x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := b.Dial("inproc://x"); err == nil {
		t.Error("cross-namespace dial succeeded")
	}
}

func TestListenDuplicateAddr(t *testing.T) {
	nw := NewInproc()
	l, _ := nw.Listen("inproc://dup")
	defer l.Close()
	if _, err := nw.Listen("inproc://dup"); err == nil {
		t.Error("duplicate listen succeeded")
	}
	l.Close()
	if l2, err := nw.Listen("inproc://dup"); err != nil {
		t.Errorf("re-listen after close failed: %v", err)
	} else {
		l2.Close()
	}
}

func TestConnSendPreservesCallerBuffer(t *testing.T) {
	nw := NewInproc()
	l, _ := nw.Listen("")
	defer l.Close()
	got := make(chan []byte, 1)
	go func() {
		c, _ := l.Accept()
		f, _ := c.Recv()
		got <- f
	}()
	c, _ := nw.Dial(l.Addr())
	buf := []byte{1, 2, 3}
	c.Send(buf)
	buf[0] = 99 // mutate after send
	f := <-got
	if f[0] != 1 {
		t.Error("send aliased the caller's buffer")
	}
}

func newPair(t *testing.T, nw Network) (*Node, *Node) {
	t.Helper()
	a, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestNodeSendDelivers(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			a, b := newPair(t, nw)
			if err := a.Send(b.Addr(), wire.TPing, []byte("hi")); err != nil {
				t.Fatal(err)
			}
			select {
			case pkt := <-b.Inbox():
				if pkt.Type != wire.TPing || string(pkt.Payload) != "hi" || pkt.From != a.Addr() {
					t.Fatalf("got %+v", pkt)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("timeout")
			}
		})
	}
}

func TestNodeOrderPreservedPerPeer(t *testing.T) {
	a, b := newPair(t, NewInproc())
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), wire.TEdges, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		pkt := <-b.Inbox()
		got := int(pkt.Payload[0]) | int(pkt.Payload[1])<<8
		if got != i {
			t.Fatalf("out of order: got %d at position %d", got, i)
		}
	}
}

func TestRequestReply(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			a, b := newPair(t, nw)
			go func() {
				pkt := <-b.Inbox()
				_ = b.Reply(pkt, wire.TPong, []byte("world"))
			}()
			reply, err := a.Request(b.Addr(), wire.TPing, []byte("hello"), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type != wire.TPong || string(reply.Payload) != "world" {
				t.Fatalf("reply %+v", reply)
			}
		})
	}
}

func TestRequestTimeout(t *testing.T) {
	a, b := newPair(t, NewInproc())
	_, err := a.Request(b.Addr(), wire.TPing, nil, 50*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout")
	}
	// The unanswered packet still reached b's inbox.
	select {
	case <-b.Inbox():
	case <-time.After(time.Second):
		t.Fatal("request packet never delivered")
	}
}

func TestSendAckedAndFlush(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			a, b := newPair(t, nw)
			const n = 50
			go func() {
				for i := 0; i < n; i++ {
					pkt := <-b.Inbox()
					b.Ack(pkt)
				}
			}()
			for i := 0; i < n; i++ {
				if err := sendAcked(a, b.Addr(), wire.TEdges, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := awaitAcks(a, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if a.Stats().OutstandingAcks != 0 {
				t.Errorf("outstanding = %d", a.Stats().OutstandingAcks)
			}
		})
	}
}

// TestHeldPacketIsNotAckedByItsRetransmission: an entity may hold an acked
// push unacknowledged for longer than the sender's RTO. The retransmitted
// duplicate must be dropped without an ack — only the entity's own Ack
// tells the sender the packet was processed — and re-acked once it was,
// whether that ack leaves at once (TEdges) or waits for a frame to ride
// (TAdvance).
func TestHeldPacketIsNotAckedByItsRetransmission(t *testing.T) {
	for _, typ := range []wire.Type{wire.TEdges, wire.TAdvance} {
		t.Run(typ.String(), func(t *testing.T) {
			a, b := newPair(t, NewInproc())
			if err := sendAcked(a, b.Addr(), typ, nil); err != nil {
				t.Fatal(err)
			}
			pkt := <-b.Inbox() // held: no Ack yet
			deadline := time.Now().Add(5 * time.Second)
			for b.Stats().DuplicatesDropped == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the unacknowledged send was never retransmitted")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if n := a.Stats().OutstandingAcks; n != 1 {
				t.Fatalf("a duplicate of a held packet was acknowledged: %d sends outstanding, want 1", n)
			}
			select {
			case dup := <-b.Inbox():
				t.Fatalf("the duplicate was delivered a second time: %+v", dup)
			default:
			}
			b.Ack(pkt)
			if err := awaitAcks(a, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAckIgnoresUnackedPackets(t *testing.T) {
	a, b := newPair(t, NewInproc())
	_ = a.Send(b.Addr(), wire.TPing, nil) // req == 0
	pkt := <-b.Inbox()
	b.Ack(pkt) // must be a no-op, not a panic or stray ack
	if pkt.Req != 0 {
		t.Fatal("plain send carried a req id")
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b := newPair(t, NewInproc())
	var wg sync.WaitGroup
	const senders, per = 8, 100
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(b.Addr(), wire.TReport, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		select {
		case <-b.Inbox():
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d delivered", i, senders*per)
		}
	}
}

func TestCloseStopsNode(t *testing.T) {
	nw := NewInproc()
	a, _ := NewNode(nw, "", 0)
	b, _ := NewNode(nw, "", 0)
	defer b.Close()
	a.Close()
	if err := a.Send(b.Addr(), wire.TPing, nil); err == nil {
		t.Error("send after close succeeded")
	}
	a.Close() // double close must be safe
}

func TestPublisherFiltersByType(t *testing.T) {
	nw := NewInproc()
	pubNode, _ := NewNode(nw, "", 0)
	s1, _ := NewNode(nw, "", 0)
	s2, _ := NewNode(nw, "", 0)
	defer pubNode.Close()
	defer s1.Close()
	defer s2.Close()

	pub := NewPublisher(pubNode)
	pub.Subscribe(s1.Addr(), wire.TDirUpdate)
	pub.Subscribe(s2.Addr()) // all types

	pub.Publish(wire.TDirUpdate, []byte("view"))
	pub.Publish(wire.TAdvance, []byte("adv"))

	// s2 receives both.
	for i := 0; i < 2; i++ {
		select {
		case <-s2.Inbox():
		case <-time.After(2 * time.Second):
			t.Fatal("s2 missed a publication")
		}
	}
	// s1 receives exactly the TDirUpdate.
	select {
	case pkt := <-s1.Inbox():
		if pkt.Type != wire.TDirUpdate {
			t.Fatalf("s1 got %v", pkt.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("s1 missed its subscription")
	}
	select {
	case pkt := <-s1.Inbox():
		t.Fatalf("s1 received unsubscribed type %v", pkt.Type)
	case <-time.After(100 * time.Millisecond):
	}
}

// subscribers lists p's subscriber addresses in their fan-out order.
func subscribers(p *Publisher) []string {
	out := make([]string, len(p.subs))
	for i, sub := range p.subs {
		out[i] = sub.addr
	}
	return out
}

func TestPublisherUnsubscribe(t *testing.T) {
	nw := NewInproc()
	pubNode, _ := NewNode(nw, "", 0)
	sub, _ := NewNode(nw, "", 0)
	defer pubNode.Close()
	defer sub.Close()
	pub := NewPublisher(pubNode)
	pub.Subscribe(sub.Addr())
	if len(subscribers(pub)) != 1 {
		t.Fatal("subscriber not registered")
	}
	pub.Unsubscribe(sub.Addr())
	if len(subscribers(pub)) != 0 {
		t.Fatal("unsubscribe failed")
	}
	pub.Publish(wire.TAdvance, nil)
	select {
	case <-sub.Inbox():
		t.Fatal("received after unsubscribe")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestDialBeforeListenerRetries(t *testing.T) {
	// Elastic churn: a peer address may be known before the peer listens.
	nw := NewInproc()
	a, _ := NewNode(nw, "", 0)
	defer a.Close()
	target := "inproc://late"
	if err := a.Send(target, wire.TPing, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	l, err := nw.Listen(target)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := c.Recv(); err == nil {
			close(done)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("redial never delivered the frame")
	}
}

func TestTCPFrameSizeLimit(t *testing.T) {
	nw := NewTCP()
	l, err := nw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Recv()
	}()
	c, err := nw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, maxTCPFrame+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func BenchmarkTransportLatency(b *testing.B) {
	// §3.5 analogue: round-trip latency of each layer, with allocs/op as
	// the pooling observable. Both sides follow the release discipline so
	// the frame pools actually recycle.
	for name, nw := range map[string]Network{"inproc": NewInproc(), "tcp": NewTCP()} {
		b.Run("conn-"+name, func(b *testing.B) {
			l, _ := nw.Listen("")
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				for {
					f, err := c.Recv()
					if err != nil {
						return
					}
					err = c.Send(f)
					wire.ReleaseFrame(f)
					if err != nil {
						return
					}
				}
			}()
			c, _ := nw.Dial(l.Addr())
			defer c.Close()
			msg := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(msg); err != nil {
					b.Fatal(err)
				}
				f, err := c.Recv()
				if err != nil {
					b.Fatal(err)
				}
				wire.ReleaseFrame(f)
			}
		})
	}
	for name, nw := range map[string]Network{"inproc": NewInproc(), "tcp": NewTCP()} {
		b.Run("node-"+name, func(b *testing.B) {
			a, _ := NewNode(nw, "", 0)
			c, _ := NewNode(nw, "", 0)
			defer a.Close()
			defer c.Close()
			go func() {
				for pkt := range c.Inbox() {
					_ = c.ReplyFrame(pkt, c.NewFrame(wire.TPong))
					wire.ReleasePacket(pkt)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reply, err := a.Request(c.Addr(), wire.TPing, nil, 10*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				wire.ReleasePacket(reply)
			}
		})
	}
	// One-way PUSH throughput path: frames queue at the per-peer writer,
	// which coalesces bursts into vectored conn writes.
	for name, nw := range map[string]Network{"inproc": NewInproc(), "tcp": NewTCP()} {
		b.Run("push-"+name, func(b *testing.B) {
			a, _ := NewNode(nw, "", 0)
			c, _ := NewNode(nw, "", 0)
			defer a.Close()
			defer c.Close()
			payload := make([]byte, 64)
			received := make(chan struct{}, 1)
			go func() {
				n := 0
				for pkt := range c.Inbox() {
					wire.ReleasePacket(pkt)
					n++
					if n == b.N {
						received <- struct{}{}
					}
				}
			}()
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame := append(a.NewFrameHint(wire.TVertexMsgs, len(payload)), payload...)
				if err := a.SendFrame(c.Addr(), frame); err != nil {
					b.Fatal(err)
				}
			}
			<-received
		})
	}
}

func TestManyNodesAllToAll(t *testing.T) {
	nw := NewInproc()
	const n = 8
	nodes := make([]*Node, n)
	for i := range nodes {
		var err error
		nodes[i], err = NewNode(nw, fmt.Sprintf("inproc://n%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Close()
	}
	for i, from := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			if err := from.Send(nodes[j].Addr(), wire.TReport, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j, to := range nodes {
		for k := 0; k < n-1; k++ {
			select {
			case <-to.Inbox():
			case <-time.After(5 * time.Second):
				t.Fatalf("node %d received only %d/%d", j, k, n-1)
			}
		}
	}
}

// sendAcked is an acked push of a copy of payload.
func sendAcked(n *Node, addr string, typ wire.Type, payload []byte) error {
	_, err := n.SendFrameAcked(addr, append(n.NewFrameHint(typ, len(payload)), payload...))
	return err
}

// awaitAcks waits until every acked send of n is acknowledged, or fails
// once timeout has passed.
func awaitAcks(n *Node, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for n.Stats().OutstandingAcks > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d acked sends outstanding after %v: %w", n.Stats().OutstandingAcks, timeout, ErrTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
