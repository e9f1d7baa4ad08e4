package transport

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"elga/internal/wire"
)

// A peer's queue and an in-proc conn's pipe are limits, not allocations:
// they hold storage only for a backlog. These tests pin the queue's contract
// — per-sender order, the bound, every frame released once — and what an
// idle peer costs.

// frameID is a test frame's sender and sequence number (see numbered).
type frameID struct{ sender, seq int }

// idOf reads a test frame's ID; ok is false for anything else.
func idOf(frame []byte) (frameID, bool) {
	var pkt wire.Packet
	if wire.UnmarshalPacketInto(&pkt, frame, nil) != nil || pkt.Type != wire.TVertexMsgs || len(pkt.Payload) < 5 {
		return frameID{}, false
	}
	return frameID{int(pkt.Payload[0]), int(binary.LittleEndian.Uint32(pkt.Payload[1:]))}, true
}

// sinkNet is a Network whose dialled conns record the frames they are sent
// instead of delivering them. A seeded hand decides how each send goes: a
// TrySend may decline, a write may yield or sleep first, and the test can
// hold every write (pause) while the senders fill the queue.
type sinkNet struct {
	Network // listens: a node needs a listener of its own
	hold    sync.RWMutex

	mu    sync.Mutex
	rng   *rand.Rand
	conns []*sinkConn
}

func (s *sinkNet) Dial(addr string) (Conn, error) {
	c := &sinkConn{net: s}
	s.mu.Lock()
	s.conns = append(s.conns, c)
	s.mu.Unlock()
	return c, nil
}

// roll returns a seeded number in [0, n).
func (s *sinkNet) roll(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// pause holds every conn write for d.
func (s *sinkNet) pause(d time.Duration) {
	s.hold.Lock()
	time.Sleep(d)
	s.hold.Unlock()
}

type sinkConn struct {
	net *sinkNet

	mu  sync.Mutex
	got []frameID
}

func (c *sinkConn) record(frames [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range frames {
		if id, ok := idOf(f); ok {
			c.got = append(c.got, id)
		}
	}
}

func (c *sinkConn) SendBatch(frames [][]byte) error {
	switch c.net.roll(8) {
	case 0:
		runtime.Gosched()
	case 1:
		time.Sleep(time.Duration(c.net.roll(200)) * time.Microsecond)
	}
	c.net.hold.RLock()
	c.record(frames)
	c.net.hold.RUnlock()
	return nil
}

func (c *sinkConn) Send(frame []byte) error { return c.SendBatch([][]byte{frame}) }

// TrySend takes the batch whole or, a third of the time or while writes are
// held, not at all.
func (c *sinkConn) TrySend(frames [][]byte) bool {
	if c.net.roll(3) == 0 || !c.net.hold.TryRLock() {
		return false
	}
	c.record(frames)
	c.net.hold.RUnlock()
	return true
}

func (c *sinkConn) Recv() ([]byte, error) { select {} }
func (c *sinkConn) Close() error          { return nil }

// countReleases routes the node's frame releases through a counter for the
// rest of the test; take returns the counts so far and starts afresh.
func countReleases(t *testing.T) (take func() map[frameID]int) {
	var mu sync.Mutex
	counts := make(map[frameID]int)
	t.Cleanup(func() { releaseFrame = wire.ReleaseFrame })
	releaseFrame = func(f []byte) {
		if id, ok := idOf(f); ok {
			mu.Lock()
			counts[id]++
			mu.Unlock()
		}
		wire.ReleaseFrame(f)
	}
	return func() map[frameID]int {
		mu.Lock()
		defer mu.Unlock()
		out := counts
		counts = make(map[frameID]int)
		return out
	}
}

// TestPeerQueueProperties: several senders push numbered frames at one
// address while a seeded controller holds the conn's writes (so the queue
// fills and senders stall), cancels the peer at random and, in some rounds,
// closes the node mid-stream. Whatever happens: each conn — one peer
// incarnation — carries every sender's frames in order and none twice; no
// peer ever holds more than peerQueueDepth frames; and every frame a sender
// made is released exactly once, written or not. Run with -race.
func TestPeerQueueProperties(t *testing.T) {
	const senders, per, rounds = 4, 3000, 6
	takeReleases := countReleases(t)
	var stalls uint64
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) + 1))
		nw := &sinkNet{Network: NewInproc(), rng: rand.New(rand.NewSource(int64(round) + 100))}
		n, err := NewNode(nw, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		const addr = "inproc://sink"
		stop := make(chan struct{})
		var bound sync.WaitGroup
		bound.Add(1)
		go func() { // the bound, sampled while everything else runs
			defer bound.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n.mu.Lock()
				for _, p := range n.peers {
					p.mu.Lock()
					if p.pending > peerQueueDepth || len(p.queue) > p.pending {
						t.Errorf("a peer holds %d frames, %d of them queued; the limit is %d", p.pending, len(p.queue), peerQueueDepth)
					}
					p.mu.Unlock()
				}
				n.mu.Unlock()
				runtime.Gosched()
			}
		}()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					// Errors are expected once the node closes; the frame
					// is released either way.
					_ = n.SendFrame(addr, numbered(n.NewFrameHint(wire.TVertexMsgs, 16), s, i, i%16))
				}
			}(s)
		}
		closeAt := -1
		if round%2 == 1 {
			closeAt = rng.Intn(8)
		}
		for step := 0; step < 8; step++ {
			switch {
			case step == closeAt:
				n.Close()
			case rng.Intn(3) == 0:
				for _, f := range n.CancelPeer(addr) {
					wire.ReleaseFrame(f.Frame)
				}
			default:
				nw.pause(time.Duration(rng.Intn(20)) * time.Millisecond)
			}
		}
		wg.Wait()
		n.Close()
		close(stop)
		bound.Wait()
		stalls += n.Stats().EnqueueStalls

		// Per conn, per sender: in order, and no frame written twice.
		written := make(map[frameID]bool)
		for ci, c := range nw.conns {
			next := make([]int, senders)
			for _, id := range c.got {
				if written[id] {
					t.Fatalf("round %d: frame %v written twice", round, id)
				}
				written[id] = true
				if id.seq < next[id.sender] {
					t.Fatalf("round %d conn %d: sender %d's frame %d after its frame %d", round, ci, id.sender, id.seq, next[id.sender]-1)
				}
				next[id.sender] = id.seq + 1
			}
		}
		counts := takeReleases()
		for s := 0; s < senders; s++ {
			for i := 0; i < per; i++ {
				id := frameID{s, i}
				if got := counts[id]; got != 1 {
					t.Fatalf("round %d: frame %v released %d times (written: %v)", round, id, got, written[id])
				}
			}
		}
		t.Logf("round %d: %d conns, %d of %d frames written, %d stalls", round, len(nw.conns), len(written), senders*per, n.Stats().EnqueueStalls)
	}
	if stalls == 0 {
		t.Error("no sender ever waited at the limit: the bound went unexercised")
	}
}

// heapLive is the live heap after the collector has run twice (so the
// frame pools' victim caches are empty too).
func heapLive() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdlePeerHoldsNoQueueSlots: an in-proc peer that has been dialled and
// has drained — its queue and writer, the conn's two pipes, the receiving
// node's accepted end — costs a few KiB of heap, not the slots its limits
// allow (peerQueueDepth and 2 × inprocFrameBuffer frames).
func TestIdlePeerHoldsNoQueueSlots(t *testing.T) {
	nw := NewInproc()
	a, err := NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const peers = 32
	to := make([]*Node, peers)
	for i := range to {
		if to[i], err = NewNode(nw, "", 0); err != nil {
			t.Fatal(err)
		}
		defer to[i].Close()
	}
	before := heapLive()
	for round := 0; round < 2; round++ { // the second finds every peer dialled
		for _, b := range to {
			if err := a.Send(b.Addr(), wire.TPing, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			wire.ReleasePacket(recvType(t, b, wire.TPing))
		}
	}
	// A frame is pending until its writer returns from the conn write, which
	// can be after the receiver took it: wait for the writers to return.
	for deadline := time.Now().Add(5 * time.Second); a.Stats().QueueDepth != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames still pending", a.Stats().QueueDepth)
		}
	}
	after := heapLive()
	if after < before {
		after = before
	}
	perPeer := (after - before) / peers
	t.Logf("%d B of heap per idle dialled peer", perPeer)
	if perPeer > 16<<10 {
		t.Errorf("an idle dialled in-proc peer holds %d KiB of heap, want at most 16", perPeer>>10)
	}
	if got := a.Stats().Peers; got != peers {
		t.Errorf("Stats().Peers = %d, want %d", got, peers)
	}
}

// TestCancelledPeerStillWritesWhatWasQueued: a reply queued for a peer that
// is not dialled yet, then CancelPeer — the way a bootstrap service answers
// and forgets a requester — still reaches it.
func TestCancelledPeerStillWritesWhatWasQueued(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			a, b := newPair(t, nw)
			if err := a.Send(b.Addr(), wire.TPong, []byte("bye")); err != nil {
				t.Fatal(err)
			}
			a.CancelPeer(b.Addr())
			if got := a.Stats().Peers; got != 0 {
				t.Errorf("%d peers after the cancel", got)
			}
			pkt := recvType(t, b, wire.TPong)
			if string(pkt.Payload) != "bye" {
				t.Errorf("payload %q", pkt.Payload)
			}
			wire.ReleasePacket(pkt)
		})
	}
}

// TestPipeHoldsTheLimit: one direction of an in-proc conn takes
// inprocFrameBuffer frames and no more until the receiver returns the ones
// it took, and it keeps no backlog array once drained.
func TestPipeHoldsTheLimit(t *testing.T) {
	closed := make(chan struct{})
	p := newPipe(closed)
	frame := []byte("f")
	for i := 0; i < inprocFrameBuffer; i++ {
		if !p.put(frame) {
			t.Fatalf("full after %d frames", i)
		}
	}
	if p.put(frame) {
		t.Fatal("took a frame past the limit")
	}
	f, err := p.get() // the receiver takes the whole backlog
	if err != nil || string(f) != "f" {
		t.Fatalf("get: %q, %v", f, err)
	}
	if p.put(frame) {
		t.Fatal("took a frame while the receiver still holds the limit")
	}
	for i := 1; i < inprocFrameBuffer; i++ {
		if _, err := p.get(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { _, err := p.get(); done <- err }() // returns the batch, then waits
	for !p.put(frame) {
		runtime.Gosched()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cap(p.frames) > pipeKeep || cap(p.taken) > pipeKeep {
		t.Errorf("a drained pipe keeps arrays of %d and %d slots", cap(p.frames), cap(p.taken))
	}
	close(closed)
	if _, err := p.get(); err != ErrClosed {
		t.Fatalf("get after close: %v", err)
	}
}
