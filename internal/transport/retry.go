package transport

import (
	"fmt"
	"math/rand"
	"time"

	"elga/internal/wire"
)

// Retry is a bounded-attempt, jittered exponential-backoff policy for the
// blocking calls of the client and the streamer. The zero value selects
// sensible defaults (3 attempts, 10ms first backoff). A Seed makes the
// jitter sequence deterministic for reproducible tests; Seed 0 draws one
// from the clock.
type Retry struct {
	// Attempts is the total try count, including the first (default 3).
	Attempts int
	// PerTry bounds each attempt's blocking wait. Zero derives it from
	// the overall budget in RequestRetry, or leaves ops unbounded in Do.
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

func (r Retry) attempts() int {
	if r.Attempts <= 0 {
		return 3
	}
	return r.Attempts
}

// Do runs op until it succeeds, attempts are exhausted, the next backoff
// would cross deadline, or the error is terminal (ErrNodeClosed). A zero
// deadline disables the deadline check. The last error is returned.
func (r Retry) Do(deadline time.Time, op func() error) error {
	b := r.backoff()
	attempts := r.attempts()
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		if !Retryable(err) || i == attempts-1 {
			return err
		}
		d := b.next()
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			return err
		}
		time.Sleep(d)
	}
	return err
}

// backoff is the delay sequence of one Do: the base delay doubling up to the
// cap, each jittered.
type backoff struct {
	delay time.Duration
	seed  int64
	rng   *rand.Rand // seeded at the first delay: most calls need none
}

// backoff applies r's defaults.
func (r Retry) backoff() backoff {
	b := backoff{delay: r.BaseDelay, seed: r.Seed}
	if b.delay <= 0 {
		b.delay = 10 * time.Millisecond
	}
	return b
}

// next returns the delay before the next attempt.
func (b *backoff) next() time.Duration {
	if b.rng == nil {
		seed := b.seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		b.rng = rand.New(rand.NewSource(seed))
	}
	d := b.delay + time.Duration((b.rng.Float64()*2-1)*backoffJitter*float64(b.delay))
	b.delay = min(2*b.delay, maxBackoff)
	return d
}

// RequestRetry is RequestFrame under a Retry policy. Its callers are the
// client's and the streamer's master discovery, which block in their
// caller's goroutine; participants boot through their own Handle (Boot).
// overall is the total time budget (zero: DefaultRequestTimeout); each
// attempt waits at most policy.PerTry (zero: overall divided across
// attempts). build must return a fresh frame per call — frames are
// consumed by each attempt. The reply packet is pooled; release it with
// wire.ReleasePacket.
func (n *Node) RequestRetry(addr string, policy Retry, overall time.Duration, build func() []byte) (*wire.Packet, error) {
	if overall <= 0 {
		overall = DefaultRequestTimeout
	}
	deadline := time.Now().Add(overall)
	perTry := policy.PerTry
	if perTry <= 0 {
		perTry = overall / time.Duration(policy.attempts())
		if perTry < 50*time.Millisecond {
			perTry = 50 * time.Millisecond
		}
	}
	var reply *wire.Packet
	attempt := 0
	err := policy.Do(deadline, func() error {
		attempt++
		if attempt > 1 {
			n.stats.reqRetries.Add(1)
		}
		t := perTry
		if rem := time.Until(deadline); rem < t {
			t = rem
		}
		if t <= 0 {
			return fmt.Errorf("transport: retry budget exhausted: %w", ErrTimeout)
		}
		rp, err := n.RequestFrame(addr, build(), t)
		if err != nil {
			return err
		}
		reply = rp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reply, nil
}
