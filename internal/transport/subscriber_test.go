package transport

import (
	"errors"
	"slices"
	"testing"
	"time"

	"elga/internal/wire"
)

// stepper is an Endpoint on virtual time that a Subscriber's Do steps: it
// counts the requests sent, answers those answer picks (by their 1-based
// number) and fires the After ticks in time order.
type stepper struct {
	now     time.Time
	sub     *Subscriber
	sent    int
	answer  func(n int) bool
	sendErr error
	queue   []*wire.Packet
	ticks   []stepTick
}

type stepTick struct {
	at  time.Time
	tag []byte
}

func (e *stepper) Addr() string                                  { return "stepper" }
func (e *stepper) Now() time.Time                                { return e.now }
func (e *stepper) NewFrame(typ wire.Type) []byte                 { return e.NewFrameHint(typ, 0) }
func (e *stepper) SendFrameAcked(string, []byte) (uint32, error) { return 0, nil }
func (e *stepper) ReplyFrame(*wire.Packet, []byte) error         { return nil }
func (e *stepper) Ack(*wire.Packet)                              {}
func (e *stepper) Inject(wire.Type, []byte) error                { return nil }
func (e *stepper) CancelPeer(string) []FailedSend                { return nil }
func (e *stepper) Stats() Stats                                  { return Stats{} }
func (e *stepper) Close()                                        {}

func (e *stepper) NewFrameHint(typ wire.Type, hint int) []byte {
	return wire.AppendFrameHeader(make([]byte, 0, 64+hint), typ, 0, e.Addr())
}

func (e *stepper) SendFrame(_ string, frame []byte) error {
	if e.sendErr != nil {
		return e.sendErr
	}
	e.sent++
	if e.answer != nil && e.answer(e.sent) {
		_ = wire.FinishFrame(frame)
		req, err := wire.UnmarshalPacket(frame)
		if err != nil {
			return err
		}
		e.queue = append(e.queue, &wire.Packet{Type: wire.TPong, Req: req.Req, From: "peer"})
	}
	return nil
}

func (e *stepper) After(d time.Duration, tag []byte) {
	t := stepTick{e.now.Add(d), slices.Clone(tag)}
	i := slices.IndexFunc(e.ticks, func(u stepTick) bool { return u.at.After(t.at) })
	if i < 0 {
		i = len(e.ticks)
	}
	e.ticks = slices.Insert(e.ticks, i, t)
}

func (e *stepper) Step() bool {
	var pkt *wire.Packet
	switch {
	case len(e.queue) > 0:
		pkt, e.queue = e.queue[0], e.queue[1:]
	case len(e.ticks) > 0:
		e.now = e.ticks[0].at
		pkt = &wire.Packet{Type: wire.TTick, Payload: e.ticks[0].tag}
		e.ticks = e.ticks[1:]
	default:
		return false
	}
	e.sub.Handle(pkt)
	return true
}

func newStepper(answer func(n int) bool) *stepper {
	e := &stepper{now: time.Unix(1<<30, 0), answer: answer}
	e.sub = NewSubscriber(e, SubscriberConfig{Timeout: time.Minute})
	return e
}

func ping(r Retry, timeout time.Duration) Op {
	return Op{
		Name:    "ping",
		Timeout: timeout,
		Retry:   r,
		Frame:   func() []byte { return wire.AppendFrameHeader(nil, wire.TPing, 0, "stepper") },
		Reply:   func(*wire.Packet) error { return nil },
	}
}

// do runs op on a fresh stepper that answers the requests answer picks
// and fails every send with sendErr, and returns the requests sent, the
// virtual time the call took and its error.
func do(answer func(int) bool, sendErr error, op Op) (sent int, took time.Duration, err error) {
	e := newStepper(answer)
	e.sendErr = sendErr
	start := e.now
	err = e.sub.Do(op)
	return e.sent, e.now.Sub(start), err
}

// delays is the backoff schedule of Retry{Seed: 1}.
func delays() []time.Duration {
	b := Retry{Seed: 1}.backoff(time.Time{})
	return []time.Duration{b.next(), b.next(), b.next()}
}

// TestRetryDoAttemptCount: a request nobody answers goes out Attempts
// times, each timing out after PerTry with the seeded backoff between them,
// then fails with ErrTimeout.
func TestRetryDoAttemptCount(t *testing.T) {
	d := delays()
	sent, took, err := do(nil, nil, ping(Retry{Attempts: 4, PerTry: time.Second, Seed: 1}, 0))
	if !errors.Is(err, ErrTimeout) || sent != 4 || took != 4*time.Second+d[0]+d[1]+d[2] {
		t.Fatalf("err %v, %d sent, took %v; want a timeout after 4 sends and %v", err, sent, took, 4*time.Second+d[0]+d[1]+d[2])
	}
}

// TestRetryDoSucceedsMidway: a request answered on its third try ends there.
func TestRetryDoSucceedsMidway(t *testing.T) {
	d := delays()
	sent, took, err := do(func(n int) bool { return n == 3 }, nil, ping(Retry{Attempts: 5, PerTry: time.Second, Seed: 1}, 0))
	if err != nil || sent != 3 || took != 2*time.Second+d[0]+d[1] {
		t.Fatalf("err %v, %d sent, took %v; want success on the third send after %v", err, sent, took, 2*time.Second+d[0]+d[1])
	}
}

// TestRetryDoResendsAfterABadReply: a reply the owner cannot take fails its
// try as a timeout does, so the request goes out again after the seeded
// backoff, and the answer to the resend ends the call.
func TestRetryDoResendsAfterABadReply(t *testing.T) {
	d := delays()
	replies := 0
	op := ping(Retry{Attempts: 3, PerTry: time.Second, Seed: 1}, 0)
	op.Reply = func(*wire.Packet) error {
		replies++
		if replies == 1 {
			return errors.New("undecodable reply")
		}
		return nil
	}
	sent, took, err := do(func(int) bool { return true }, nil, op)
	if err != nil || sent != 2 || replies != 2 || took != d[0] {
		t.Fatalf("err %v, %d sent, %d replies, took %v; want success on the second send after %v",
			err, sent, replies, took, d[0])
	}
}

// TestRetryDoStopsOnNonRetryable: a closed node fails a request at once.
func TestRetryDoStopsOnNonRetryable(t *testing.T) {
	sent, took, err := do(nil, ErrNodeClosed, ping(Retry{Attempts: 5, PerTry: time.Second, Seed: 1}, 0))
	if !errors.Is(err, ErrNodeClosed) || sent != 0 || took != 0 {
		t.Fatalf("err %v, %d sent, took %v; want ErrNodeClosed at once", err, sent, took)
	}
}

// TestRetryDoStopsAtDeadline: a backoff that would cross the call's
// deadline ends the call instead, with the last try's error; a single-shot
// request (a run) is never resent and fails at its deadline.
func TestRetryDoStopsAtDeadline(t *testing.T) {
	sent, took, err := do(nil, nil, ping(Retry{Attempts: 10, PerTry: 50 * time.Millisecond, BaseDelay: time.Second, Seed: 1}, 100*time.Millisecond))
	if !errors.Is(err, ErrTimeout) || sent != 1 || took != 50*time.Millisecond {
		t.Fatalf("err %v, %d sent, took %v; want a timeout after one send and 50ms", err, sent, took)
	}
	sent, took, err = do(nil, nil, ping(Retry{Attempts: 1}, 5*time.Second))
	if !errors.Is(err, ErrTimeout) || sent != 1 || took != 5*time.Second {
		t.Fatalf("single: err %v, %d sent, took %v; want a timeout after one send and 5s", err, sent, took)
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

// TestWaitEndsWhenReadyOrExpires: a wait sends nothing, ends at the first
// packet after which its condition holds, and fails with its Expired error
// at the deadline otherwise.
func TestWaitEndsWhenReadyOrExpires(t *testing.T) {
	expired := errors.New("expired")
	wait := func(ready func() bool) Op {
		return Op{Name: "wait", Timeout: time.Minute, Ready: ready, Expired: expired}
	}
	e := newStepper(nil)
	ready := false
	e.queue = append(e.queue, &wire.Packet{Type: wire.TAck})
	calls := 0
	err := e.sub.Do(wait(func() bool {
		calls++
		ready = calls > 1 // false when the wait begins, true after the ack
		return ready
	}))
	if err != nil || !ready || e.sent != 0 {
		t.Fatalf("wait: err %v, ready %v, %d sent", err, ready, e.sent)
	}
	e = newStepper(nil)
	start := e.now
	if err := e.sub.Do(wait(func() bool { return false })); err != expired {
		t.Fatalf("wait that never holds: err %v, want %v", err, expired)
	}
	if d := e.now.Sub(start); d != time.Minute {
		t.Fatalf("expired %v after it began, want 1m", d)
	}
}
