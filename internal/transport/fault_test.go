package transport

import (
	"errors"
	"testing"
	"time"

	"elga/internal/wire"
)

// TestFaultDecideDeterministic pins the reproducibility contract: two
// fault networks with the same seed make the same per-frame decisions.
func TestFaultDecideDeterministic(t *testing.T) {
	mk := func() *FaultNetwork {
		return NewFaultNetwork(NewInproc(), FaultConfig{
			Seed: 99, Drop: 0.3, Duplicate: 0.2, Delay: 5 * time.Millisecond,
		})
	}
	f1, f2 := mk(), mk()
	for i := 0; i < 200; i++ {
		d1, u1, l1, _ := f1.decide("x")
		d2, u2, l2, _ := f2.decide("x")
		if d1 != d2 || u1 != u2 || l1 != l2 {
			t.Fatalf("decision %d diverged: (%v,%v,%v) vs (%v,%v,%v)", i, d1, u1, l1, d2, u2, l2)
		}
	}
}

func TestFaultKill(t *testing.T) {
	fn := NewFaultNetwork(NewInproc(), FaultConfig{Seed: 5})
	l, err := fn.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := fn.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fn.Kill(l.Addr())
	if err := c.Send([]byte{1}); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("send to killed peer: %v, want ErrPeerClosed", err)
	}
	if _, err := fn.Dial(l.Addr()); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("dial to killed peer: %v, want ErrPeerClosed", err)
	}
}

// TestFaultBlockUnblock checks that a one-way partition stalls an acked
// send (the retransmission loop keeps it alive) and that healing the
// partition lets the retransmissions land.
func TestFaultBlockUnblock(t *testing.T) {
	fn := NewFaultNetwork(NewInproc(), FaultConfig{Seed: 6})
	a, b := newPair(t, fn)
	go func() {
		for pkt := range b.Inbox() {
			b.Ack(pkt)
			wire.ReleasePacket(pkt)
		}
	}()
	fn.Block(b.Addr())
	if err := sendAcked(a, b.Addr(), wire.TEdges, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := awaitAcks(a, 250*time.Millisecond); err == nil {
		t.Fatal("flush succeeded across a partition")
	}
	fn.Unblock(b.Addr())
	if err := awaitAcks(a, 10*time.Second); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if a.Stats().Retransmits == 0 {
		t.Error("partition healed without any retransmission")
	}
}

// TestAckedExactlyOnceUnderDrops runs the full reliability stack — RTO
// retransmission on the sender, ring dedup on the receiver — under 10%
// drop and 10% duplication, and checks every acked push is applied
// exactly once.
func TestAckedExactlyOnceUnderDrops(t *testing.T) {
	const sends = 200
	fn := NewFaultNetwork(NewInproc(), FaultConfig{Seed: 77, Drop: 0.1, Duplicate: 0.1})
	a, b := newPair(t, fn)
	delivered := make(chan struct{}, 4*sends)
	go func() {
		for pkt := range b.Inbox() {
			if pkt.Type == wire.TEdges {
				delivered <- struct{}{}
			}
			b.Ack(pkt)
			wire.ReleasePacket(pkt)
		}
	}()
	for i := 0; i < sends; i++ {
		if err := sendAcked(a, b.Addr(), wire.TEdges, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := awaitAcks(a, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Flush returned, so every send was acked; give any duplicate
	// deliveries still in flight a moment, then tally.
	time.Sleep(200 * time.Millisecond)
	if got := len(delivered); got != sends {
		t.Errorf("delivered %d times, want exactly %d", got, sends)
	}
	as, bs := a.Stats(), b.Stats()
	if as.Retransmits == 0 {
		t.Error("no retransmissions under 10%% drop")
	}
	if bs.DuplicatesDropped == 0 {
		t.Error("no duplicates dropped under 10%% duplication")
	}
	if as.AckGiveUps != 0 {
		t.Errorf("%d sends gave up; the test's tally is unsound", as.AckGiveUps)
	}
}

// TestRetryJitterScheduleIsSeeded: a Seed fixes the jittered delays, and
// they are the ones a seeded Retry has always slept (default base, cap and
// jitter).
func TestRetryJitterScheduleIsSeeded(t *testing.T) {
	for seed, want := range map[int64][]time.Duration{
		1:  {10418641, 23524072, 42632960, 78006854, 155176800, 343913353, 413127404, 431303851},
		42: {9492114, 16528004, 41665501, 70682199, 130804382, 305048743, 562575427, 476889170},
	} {
		b := Retry{Seed: seed}.backoff(time.Time{})
		for i, w := range want {
			if d := b.next(); d != w {
				t.Fatalf("seed %d: delay %d = %v, want %v", seed, i, d, w)
			}
		}
	}
}
