package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"elga/internal/metrics"
	"elga/internal/wire"
)

// Subscriber is the event loop a client and a streamer share. Over an
// Endpoint it asks the master for the directory list and subscribes, acked,
// to the last directory's view broadcasts (Boot). It acknowledges each view
// and keeps the newest for its owner, who takes it with Install before it
// routes; a call that routes or waits takes each view as it comes.
// It runs the owner's calls one at a time (Do). A call is a request, which
// the reply carrying the call's request ID completes and a Retry schedule
// resends, or a wait, which ends once the owner's condition holds.
// Each fails at its deadline, watched by one pending After tick at a time.
// Start runs the loop over a Node; on a simulator's endpoint Do steps it.
// Handle and the owner's calls hold the lock, and the owner's hooks run
// under it: they are the owner's state.
type Subscriber struct {
	sync.Mutex
	cfg  SubscriberConfig
	ep   Endpoint
	boot *Boot
	// Coord is the first directory of the master's list, once booted: the
	// coordinator. dir is the last, whose views the subscriber follows.
	Coord  string
	dir    string
	loop   chan struct{}
	closed bool // the loop has ended
	cur    *call
	lastID uint32
	alarm  time.Time  // when the pending tick comes; zero with none
	view   *wire.View // the newest view the owner has not taken
	// rtt is the node's REQ/REP round-trip histogram (Start); nil off.
	rtt *metrics.Histogram
}

// SubscriberConfig is what a Subscriber's owner tells it.
type SubscriberConfig struct {
	// Master locates the DirectoryMaster. Timeout is the bootstrap's
	// budget and a call's default.
	Master  string
	Timeout time.Duration
	// View takes the newest view (Install); its failure fails the call in
	// flight.
	View func(*wire.View) error
	// Retried, if set, sees each resend of a call.
	Retried func(name string, try int)
}

// Op is one call of a Subscriber's owner: a request when Frame is set, a
// wait when it is not.
type Op struct {
	// Name labels the call ("seal", "query 42", "flush").
	Name string
	// Timeout bounds the whole call (0: SubscriberConfig.Timeout).
	Timeout time.Duration
	// Retry shapes a request's resend schedule; Retry{Attempts: 1} sends
	// it once with the whole budget, as a non-idempotent request (a run)
	// must be.
	Retry Retry
	// Addr resolves a request's destination per attempt, so a resend can
	// route around an agent that died; nil sends to the coordinator.
	Addr func() (string, error)
	// Frame builds a fresh request frame per attempt.
	Frame func() []byte
	// Reply consumes a request's reply packet, which it must not retain.
	Reply func(*wire.Packet) error
	// Ready ends a wait once it holds; Expired fails it at its deadline.
	Ready   func() bool
	Expired error
}

// Retry is a request's resend schedule: bounded attempts, each waiting at
// most PerTry for its reply, with a jittered exponential backoff between
// them, within the call's deadline. The zero value selects sensible
// defaults (3 attempts, 10ms first backoff). A Seed makes the jitter
// deterministic for reproducible tests; Seed 0 draws one from the clock.
type Retry struct {
	// Attempts is the total try count, including the first (default 3).
	Attempts int
	// PerTry bounds each attempt's wait for its reply. Zero divides the
	// call's budget across the attempts (at least 50ms each).
	PerTry time.Duration
	// BaseDelay is the backoff before the second attempt (default 10ms);
	// it doubles per attempt up to maxBackoff.
	BaseDelay time.Duration
	// Seed fixes the jitter sequence; 0 uses a clock-derived seed.
	Seed int64
}

// Every backoff is capped at maxBackoff and jittered by ±backoffJitter.
const (
	maxBackoff    = 500 * time.Millisecond
	backoffJitter = 0.2
)

// backoff is the delay sequence of one call: the base delay doubling up to
// the cap, each jittered.
type backoff struct {
	delay time.Duration
	seed  int64
	rng   *rand.Rand // seeded at the first delay: most calls need none
}

func (r Retry) attempts() int {
	if r.Attempts <= 0 {
		return 3
	}
	return r.Attempts
}

// backoff applies r's defaults; now seeds the jitter when r has no Seed.
func (r Retry) backoff(now time.Time) backoff {
	b := backoff{delay: r.BaseDelay, seed: r.Seed}
	if b.delay <= 0 {
		b.delay = 10 * time.Millisecond
	}
	if b.seed == 0 {
		b.seed = now.UnixNano()
	}
	return b
}

// next returns the delay before the next attempt.
func (b *backoff) next() time.Duration {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.seed))
	}
	d := b.delay + time.Duration((b.rng.Float64()*2-1)*backoffJitter*float64(b.delay))
	b.delay = min(2*b.delay, maxBackoff)
	return d
}

// call is an Op in flight. Every attempt carries the call's request ID, so
// a late reply to an earlier attempt completes it too.
type call struct {
	Op
	id       uint32
	tries    int
	attempts int
	perTry   time.Duration
	deadline time.Time
	// at is when the current try times out or, backing off, when the next
	// one goes out; sent is when the current try went out.
	at      time.Time
	sent    time.Time
	backing bool
	backoff backoff
	err     error
	done    chan struct{}
}

// alarmTag is the payload of the Subscriber's ticks.
var alarmTag = []byte("\x00subscriber")

// NewSubscriber returns the loop of the participant on ep; it starts
// nothing.
func NewSubscriber(ep Endpoint, cfg SubscriberConfig) *Subscriber {
	return &Subscriber{cfg: cfg, ep: ep, boot: NewBoot(ep)}
}

// Start runs the loop over node on a goroutine of its own — each packet to
// Handle, released unless Handle kept it — and returns once the bootstrap
// has ended. A closed node fails the call in flight. The round trip of each
// answered request goes to the node's histogram (RegisterMetrics first).
func (s *Subscriber) Start(node *Node) error {
	s.loop = make(chan struct{})
	s.rtt = node.rttHist.Load()
	boot := s.Boot()
	go func() {
		defer close(s.loop)
		for pkt := range node.Inbox() {
			if !s.Handle(pkt) {
				wire.ReleasePacket(pkt)
			}
		}
		s.Lock()
		s.closed = true
		if s.cur != nil {
			s.end(ErrNodeClosed)
		}
		s.Unlock()
	}()
	<-boot.Done()
	if err := boot.Err(); err != nil {
		node.Close()
		<-s.loop
		return err
	}
	return nil
}

// Boot starts the bootstrap that Handle runs: a TGetDirectory to the master,
// resent until the directory list arrives. The returned Boot ends once the
// subscription has gone out. Call it before a packet reaches Handle.
func (s *Subscriber) Boot() *Boot {
	s.boot.Ask(s.cfg.Master, wire.TDirectoryList, s.cfg.Timeout/5, s.cfg.Timeout,
		func() []byte { return s.ep.NewFrame(wire.TGetDirectory) })
	return s.boot
}

// booted subscribes to the last directory of the master's list. The
// subscription is acked: losing it would freeze the owner's view of the
// membership for good.
func (s *Subscriber) booted(pkt *wire.Packet) {
	dirs, err := wire.DecodeStringList(pkt.Payload)
	if err == nil && len(dirs) == 0 {
		err = fmt.Errorf("no directories: %w", ErrUnavailable)
	}
	if err == nil {
		s.Coord, s.dir = dirs[0], dirs[len(dirs)-1]
		frame := wire.AppendSubscribeTypes(s.ep.NewFrame(wire.TSubscribe), wire.TDirUpdate)
		_, err = s.ep.SendFrameAcked(s.dir, frame)
	}
	if err != nil {
		s.boot.End(err)
		return
	}
	for _, p := range s.boot.End(nil) {
		if !s.handle(p) {
			wire.ReleasePacket(p)
		}
	}
}

// Handle is the owner's Handle: it runs the bootstrap, acknowledges each
// view and keeps the newest, completes the call in flight with its reply,
// acts on its deadline ticks and, after any packet — an ack, say — ends a
// wait whose condition holds. retained reports whether it kept pkt.
func (s *Subscriber) Handle(pkt *wire.Packet) (retained bool) {
	s.Lock()
	defer s.Unlock()
	return s.handle(pkt)
}

func (s *Subscriber) handle(pkt *wire.Packet) bool {
	if took, retained := s.boot.Take(pkt, s.booted); took {
		return retained
	}
	switch {
	case pkt.Type == wire.TDirUpdate:
		s.ep.Ack(pkt)
		v, err := wire.DecodeView(pkt.Payload)
		if err == nil && (s.view == nil || !v.Precedes(s.view.Epoch, s.view.BatchID)) {
			s.view = v
		}
		if s.cur != nil && (s.cur.Addr != nil || s.cur.Frame == nil) {
			if err := s.Install(); err != nil {
				s.end(err)
			}
		}
	case pkt.Type == wire.TTick && bytes.Equal(pkt.Payload, alarmTag):
		if !s.ep.Now().Before(s.alarm) {
			s.alarm = time.Time{}
		}
		if s.cur != nil {
			s.due()
		}
	case s.cur != nil && pkt.Req == s.cur.id && pkt.Type != wire.TAck:
		s.reply(pkt)
	}
	if s.cur != nil && s.cur.Frame == nil && s.cur.Ready() {
		s.end(nil)
	}
	return false
}

// Do runs o until Handle ends it, or its deadline passes, and returns its
// failure. An endpoint with a Step method moves only when its caller steps
// it — a simulator's, whose one goroutine runs every participant — and Do
// steps it meanwhile: each Step delivers the next packet or fires the next
// timer, and reports false with neither.
func (s *Subscriber) Do(o Op) error {
	s.Lock()
	k := s.begin(o)
	s.Unlock()
	st, stepped := s.ep.(interface{ Step() bool })
	for stepped {
		select {
		case <-k.done:
			return k.err
		default:
		}
		// A call always has its deadline tick pending.
		if !st.Step() {
			panic("transport: a stepped endpoint ran out of events with a call waiting")
		}
	}
	<-k.done
	return k.err
}

// begin makes o the call in flight and starts it. s locked.
func (s *Subscriber) begin(o Op) *call {
	now := s.ep.Now()
	overall := o.Timeout
	if overall <= 0 {
		overall = s.cfg.Timeout
	}
	k := &call{
		Op:       o,
		attempts: o.Retry.attempts(),
		perTry:   o.Retry.PerTry,
		deadline: now.Add(overall),
		backoff:  o.Retry.backoff(now),
		done:     make(chan struct{}),
	}
	if k.perTry <= 0 {
		k.perTry = max(overall/time.Duration(k.attempts), 50*time.Millisecond)
	}
	switch {
	case s.cur != nil:
		k.err = fmt.Errorf("%s while %s is in flight: calls are not concurrent", o.Name, s.cur.Name)
		close(k.done)
	case s.closed:
		s.cur = k
		s.end(ErrNodeClosed)
	default:
		s.lastID++
		if s.lastID == 0 {
			s.lastID = 1
		}
		k.id, s.cur = s.lastID, k
		s.try()
	}
	return k
}

// Install hands the owner the newest view it has not taken, if any. Views
// that reach an idle owner are only kept, so a burst of them costs one
// install. s locked.
func (s *Subscriber) Install() error {
	v := s.view
	if v == nil {
		return nil
	}
	s.view = nil
	return s.cfg.View(v)
}

// try sends the next attempt and sets the alarm for its timeout; an attempt
// that cannot be sent fails at once. A call that routes or waits first takes
// the newest view. A wait sends nothing.
func (s *Subscriber) try() {
	k, now := s.cur, s.ep.Now()
	k.tries++
	if k.tries > 1 && s.cfg.Retried != nil {
		s.cfg.Retried(k.Name, k.tries)
	}
	if k.Addr != nil || k.Frame == nil {
		if err := s.Install(); err != nil {
			s.end(err)
			return
		}
	}
	if k.Frame == nil {
		if k.Ready() {
			s.end(nil)
		} else {
			s.wake(k.deadline)
		}
		return
	}
	addr := s.Coord
	var err error
	if k.Addr != nil {
		addr, err = k.Addr()
	}
	t := min(k.perTry, k.deadline.Sub(now))
	if err == nil && t <= 0 {
		err = fmt.Errorf("retry budget exhausted: %w", ErrTimeout)
	}
	if err == nil {
		frame := k.Frame()
		wire.PatchFrameReq(frame, k.id)
		err = s.ep.SendFrame(addr, frame)
	}
	if err != nil {
		s.failed(err, now)
		return
	}
	k.backing, k.sent = false, now
	s.wake(now.Add(t))
}

// reply completes the call in flight with its reply. A reply the owner
// cannot take fails the try, as a timeout does.
func (s *Subscriber) reply(pkt *wire.Packet) {
	now := s.ep.Now()
	if err := s.cur.Reply(pkt); err != nil {
		s.failed(err, now)
		return
	}
	s.rtt.Observe(now.Sub(s.cur.sent).Seconds())
	s.end(nil)
}

// failed ends the call with err, unless its schedule sends another try
// after a jittered backoff: the attempts are not spent, the node is not
// closed — timeouts, peer closures and unavailability are all transient
// under churn — and the backoff does not cross the deadline.
func (s *Subscriber) failed(err error, now time.Time) {
	k := s.cur
	at := now.Add(k.backoff.next())
	if !errors.Is(err, ErrNodeClosed) && k.tries < k.attempts && !at.After(k.deadline) {
		k.backing = true
		s.wake(at)
		return
	}
	s.end(err)
}

// due acts on the call in flight at an alarm tick: a try timed out, a
// backoff ended, a wait ran out — or nothing is due yet.
func (s *Subscriber) due() {
	k, now := s.cur, s.ep.Now()
	switch {
	case now.Before(k.at):
		s.wake(k.at)
	case k.Frame == nil:
		s.end(k.Expired)
	case k.backing:
		s.try()
	default:
		s.failed(fmt.Errorf("no reply within %v: %w", k.perTry, ErrTimeout), now)
	}
}

// wake makes the call in flight due at t and sets the alarm for it: an
// After tick is armed only if none pending comes by then, since a tick
// cannot be taken back.
func (s *Subscriber) wake(t time.Time) {
	s.cur.at = t
	if s.alarm.IsZero() || s.alarm.After(t) {
		s.alarm = t
		s.ep.After(max(0, t.Sub(s.ep.Now())), alarmTag)
	}
}

// end ends the call in flight with err.
func (s *Subscriber) end(err error) {
	k := s.cur
	s.cur, k.err = nil, err
	close(k.done)
}

// Close unsubscribes, closes the endpoint and waits for Start's loop. The
// bootstrap, which set the directory, ended before Start returned.
func (s *Subscriber) Close() {
	_ = s.ep.SendFrame(s.dir, s.ep.NewFrame(wire.TUnsubscribe))
	s.ep.Close()
	if s.loop != nil {
		<-s.loop
	}
}
