package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"elga/internal/wire"
)

// TestCloseWithFullInboxDoesNotWedge exercises the shutdown path: a node
// whose inbox is saturated (consumer never drains) must still close
// promptly — dispatch parks on the node-done channel, not just the inbox,
// so readLoops cannot wedge Close's wg.Wait.
func TestCloseWithFullInboxDoesNotWedge(t *testing.T) {
	nw := NewInproc()
	a, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(nw, "", 1) // single-slot inbox, never drained
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := a.SendFrame(b.Addr(), a.NewFrame(wire.TReport)); err != nil {
			t.Fatal(err)
		}
	}
	// Give the frames time to land in b's read path.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged behind a full inbox")
	}
}

// TestStatsCountMalformedFrames drives a garbage frame straight through a
// raw conn and checks the node counts (and survives) it.
func TestStatsCountMalformedFrames(t *testing.T) {
	nw := NewInproc()
	n, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := nw.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().MalformedFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed frame never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := n.Stats().FramesIn; got != 0 {
		t.Errorf("malformed frame counted as well-formed: FramesIn=%d", got)
	}
}

// TestStatsCountEnqueueStalls saturates the whole pipeline behind a
// one-slot inbox that is drained only later, forcing the sender's peer
// queue to fill and the enqueue path to report backpressure stalls.
func TestStatsCountEnqueueStalls(t *testing.T) {
	nw := NewInproc()
	a, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(nw, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Enough frames to fill the inproc channel, the peer queue, and the
	// one-slot inbox, with margin.
	const total = inprocFrameBuffer + peerQueueDepth + 1024
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := a.SendFrame(b.Addr(), a.NewFrame(wire.TReport)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	// Nothing is received until the sender has hit a full queue: a receiver
	// draining from the start can keep up, and then nothing ever saturates.
	deadline := time.After(30 * time.Second)
	for a.Stats().EnqueueStalls == 0 {
		select {
		case err := <-sent:
			t.Fatalf("sender finished %d frames into an undrained pipeline without stalling (err=%v)", total, err)
		case <-deadline:
			t.Fatal("sender never stalled on the undrained pipeline")
		case <-time.After(time.Millisecond):
		}
	}
	got := 0
	for got < total {
		select {
		case pkt := <-b.Inbox():
			wire.ReleasePacket(pkt)
			got++
		case <-deadline:
			t.Fatalf("received %d/%d frames", got, total)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.EnqueueStalls == 0 {
		t.Error("saturated pipeline recorded no enqueue stalls")
	}
	if s := b.Stats(); s.FramesIn != total {
		t.Errorf("FramesIn=%d, want %d", s.FramesIn, total)
	}
}

// TestConcurrentSendReceiveRelease hammers two nodes with concurrent
// senders in both directions while consumers verify payload integrity and
// recycle every packet — the pooled pipeline must stay race-clean and
// must never hand a buffer to two owners (run with -race).
func TestConcurrentSendReceiveRelease(t *testing.T) {
	for name, nw := range map[string]Network{"inproc": NewInproc(), "tcp": NewTCP()} {
		t.Run(name, func(t *testing.T) {
			a, err := NewNode(nw, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := NewNode(nw, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			const senders = 4
			const perSender = 400
			var wg sync.WaitGroup
			consume := func(n *Node, errs chan<- error) {
				defer wg.Done()
				for i := 0; i < senders*perSender; i++ {
					var pkt *wire.Packet
					select {
					case pkt = <-n.Inbox():
					case <-time.After(20 * time.Second):
						errs <- fmt.Errorf("timed out at packet %d", i)
						return
					}
					// Payload pattern: length byte0+1 copies of byte0.
					if len(pkt.Payload) == 0 || len(pkt.Payload) != int(pkt.Payload[0])+1 {
						errs <- fmt.Errorf("bad payload length %d", len(pkt.Payload))
						return
					}
					for _, x := range pkt.Payload {
						if x != pkt.Payload[0] {
							errs <- fmt.Errorf("payload corrupted: %v", pkt.Payload)
							return
						}
					}
					wire.ReleasePacket(pkt)
				}
				errs <- nil
			}
			produce := func(from *Node, to string, seed int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					k := byte((seed + i) % 100)
					frame := from.NewFrameHint(wire.TVertexMsgs, int(k)+1)
					for j := 0; j <= int(k); j++ {
						frame = append(frame, k)
					}
					if err := from.SendFrame(to, frame); err != nil {
						return
					}
				}
			}
			errsA := make(chan error, 1)
			errsB := make(chan error, 1)
			wg.Add(2 + 2*senders)
			go consume(a, errsA)
			go consume(b, errsB)
			for s := 0; s < senders; s++ {
				go produce(a, b.Addr(), s*7)
				go produce(b, a.Addr(), s*13)
			}
			if err := <-errsA; err != nil {
				t.Fatal(err)
			}
			if err := <-errsB; err != nil {
				t.Fatal(err)
			}
			wg.Wait()
		})
	}
}

// TestPushRoundTripAllocs pins the allocation ceiling of a full in-proc
// PUSH delivery: frame build, send, receive, release. The pooled pipeline
// must stay far below the pre-pooling cost (13 allocs/op at the seed).
func TestPushRoundTripAllocs(t *testing.T) {
	nw := NewInproc()
	a, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payload := []byte("0123456789abcdef")
	push := func() {
		frame := append(a.NewFrameHint(wire.TVertexMsgs, len(payload)), payload...)
		if err := a.SendFrame(b.Addr(), frame); err != nil {
			t.Fatal(err)
		}
		select {
		case pkt := <-b.Inbox():
			wire.ReleasePacket(pkt)
		case <-time.After(10 * time.Second):
			t.Fatal("push never delivered")
		}
	}
	// Warm the conn, pools, and interner.
	for i := 0; i < 50; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(200, push)
	if allocs > 4 {
		t.Errorf("in-proc push costs %.1f allocs/op, want <= 4", allocs)
	}
}
