package transport

import (
	"bytes"
	"fmt"
	"time"

	"elga/internal/wire"
)

// Boot is a participant's bootstrap, run by its own Handle: a request goes
// out as a plain push, which the receiver answers with ReplyFrame, and an
// After tick resends it every period until the answer arrives or the
// deadline has passed. What else arrives meanwhile is parked, to be handled
// in arrival order once the participant is up. Nothing blocks: Done is
// closed when the bootstrap ends.
type Boot struct {
	ep       Endpoint
	deadline time.Time
	send     func() // sends the request
	want     wire.Type
	every    time.Duration
	seq      byte // numbers the requests, so a stale tick is told apart
	ended    bool
	done     chan struct{}
	err      error
	parked   []*wire.Packet
}

// bootTag starts a Boot tick's payload; the request's seq follows.
var bootTag = []byte("\x00boot")

// NewBoot returns the bootstrap of the participant on ep.
func NewBoot(ep Endpoint) *Boot { return &Boot{ep: ep, done: make(chan struct{})} }

// Ask sends frame() to addr now and every period until a packet of type
// want reaches Take, in place of the request before it. The first Ask gives
// the bootstrap budget to end.
func (b *Boot) Ask(addr string, want wire.Type, every, budget time.Duration, frame func() []byte) {
	if b.seq == 0 {
		b.deadline = b.ep.Now().Add(budget)
	}
	b.seq++
	b.want, b.every = want, every
	b.send = func() { _ = b.ep.SendFrame(addr, frame()) } // a lost request is resent
	b.resend()
}

func (b *Boot) resend() {
	b.send()
	b.ep.After(b.every, append(bootTag[:len(bootTag):len(bootTag)], b.seq))
}

// Take routes pkt through the bootstrap; Handle calls it first. It hands
// the answer awaited to answer, acts on the bootstrap's ticks and parks
// anything else until the bootstrap ends. took reports whether pkt was the
// bootstrap's, retained whether it was parked.
func (b *Boot) Take(pkt *wire.Packet, answer func(*wire.Packet)) (took, retained bool) {
	switch {
	case pkt.Type == wire.TTick && bytes.HasPrefix(pkt.Payload, bootTag):
		if b.ended || pkt.Payload[len(pkt.Payload)-1] != b.seq {
			return true, false // its request was answered
		}
		if b.ep.Now().Before(b.deadline) {
			b.resend()
		} else {
			b.End(fmt.Errorf("transport: no %s by the deadline: %w", b.want, ErrTimeout))
		}
		return true, false
	case b.ended || b.seq == 0:
		return false, false
	case pkt.Type == b.want:
		answer(pkt)
		return true, false
	}
	b.parked = append(b.parked, pkt)
	return true, true
}

// End ends the bootstrap and closes Done. It hands the parked packets back
// on success and releases them on failure.
func (b *Boot) End(err error) (parked []*wire.Packet) {
	if b.ended {
		return nil
	}
	// The request holds the participant, which holds the Boot: a cycle that
	// would keep a finalizer on the participant from ever running.
	b.ended, b.err, b.send, parked, b.parked = true, err, nil, b.parked, nil
	close(b.done)
	if err != nil {
		for _, p := range parked {
			wire.ReleasePacket(p)
		}
		return nil
	}
	return parked
}

// Done is closed when the bootstrap ends; Err then says whether it failed.
func (b *Boot) Done() <-chan struct{} { return b.done }

// Err is the bootstrap's failure, nil on success; read it after Done.
func (b *Boot) Err() error { return b.err }
