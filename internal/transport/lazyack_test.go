package transport_test

import (
	"testing"
	"time"

	"elga/internal/sim"
	"elga/internal/wire"
)

// TestLazyAcksCauseNoRetransmitsUnderDelay runs 20 barrier rounds between
// a coordinator and an agent, each an acked TAdvance answered by an acked
// TReady, while every frame is delayed by up to 20 ms. Both types' acks
// are lazy: each waits for the next frame to its sender or the next
// protocol tick. A parked ack plus the delay must still beat the sender's
// RTO, so neither side resends anything.
func TestLazyAcksCauseNoRetransmitsUnderDelay(t *testing.T) {
	const rounds, delay = 20, 20 * time.Millisecond
	w := sim.NewWorld()
	w.Chaos(7, 0, 0, delay)
	coord, agent := w.Endpoint("coord"), w.Endpoint("agent")
	done, finished := 0, time.Time{}
	advance := func() {
		if _, err := coord.SendFrameAcked("agent", coord.NewFrame(wire.TAdvance)); err != nil {
			t.Fatal(err)
		}
	}
	coord.Serve(func(pkt *wire.Packet) bool {
		if pkt.Type == wire.TReady {
			coord.Ack(pkt)
			if done++; done < rounds {
				advance()
			} else {
				finished = w.Now()
			}
		}
		return false
	})
	agent.Serve(func(pkt *wire.Packet) bool {
		if pkt.Type == wire.TAdvance {
			agent.Ack(pkt)
			if _, err := agent.SendFrameAcked("coord", agent.NewFrame(wire.TReady)); err != nil {
				t.Fatal(err)
			}
		}
		return false
	})
	start := w.Now()
	advance()
	for coord.Step() {
	}
	if done != rounds {
		t.Fatalf("%d of %d rounds completed", done, rounds)
	}
	if took := finished.Sub(start); took <= time.Duration(rounds)*delay/10 {
		t.Errorf("%d rounds took %v of virtual time: the frames were not delayed", rounds, took)
	}
	for _, e := range []*sim.Endpoint{coord, agent} {
		s := e.Stats()
		if s.OutstandingAcks != 0 || s.AckGiveUps != 0 {
			t.Errorf("%s: %d sends outstanding and %d given up once the world ran out", e.Addr(), s.OutstandingAcks, s.AckGiveUps)
		}
		if s.Retransmits != 0 {
			t.Errorf("%s: %d retransmissions under a %v delay", e.Addr(), s.Retransmits, delay)
		}
	}
}
