// Package profile implements the cluster profiling plane: coordinator-
// triggered runtime profile capture (CPU, heap, goroutine, mutex, block,
// allocs) fanned out to any subset of agents over TProfileReq, chunks
// back in reports, with captures optionally scoped to superstep windows —
// armed at the post-vote safe point, stopped N supersteps later — so
// samples align with compute/combine phases instead of smearing across
// barrier waits. Captured artifacts stream back as bounded chunks into a
// coordinator-side content-addressed store (the checkpoint.Sink
// abstraction) whose manifest tags each profile with run ID, superstep
// span, trace ID, and the health verdict that triggered it.
//
// The plane follows the repo's off-switch discipline: disabled, every
// hot-path touch point costs one predicted branch and zero allocations
// (the superstep alloc ceiling depends on it), and capture work runs off
// the event loop — chunks ride the lossy report.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// Config tunes the profiling plane. The zero value is disabled.
type Config struct {
	// Enabled is the master switch for the coordinator-side store and the
	// auto-capture policy. Operator-requested captures (elga profile) work
	// regardless — they land in an in-memory store when the plane is off.
	Enabled bool
	// Dir is the artifact store root. Empty keeps artifacts in memory
	// (they die with the coordinator); set it to persist profiles across
	// restarts and to hand files directly to go tool pprof.
	Dir string
	// Rates arms runtime mutex/block profiling
	// (runtime.SetMutexProfileFraction / runtime.SetBlockProfileRate) so
	// those profile kinds — and /debug/pprof/{mutex,block} — carry data.
	// Off by default: both add sampling overhead to every contended lock.
	Rates bool
	// AutoCapture lets the coordinator request a profile on the first
	// straggler/suspect verdict for an agent, matching the attributed
	// cause. Off by default; rate-limited by Cooldown, one in-flight
	// capture per agent.
	AutoCapture bool
	// Steps is the default superstep window length for scoped captures
	// (0 selects DefaultSteps).
	Steps int
	// Seconds is the CPU capture wall-clock fallback window used when no
	// run is active (0 selects DefaultSeconds).
	Seconds float64
	// Cooldown is the per-agent auto-capture rate limit (0 selects
	// DefaultCooldown).
	Cooldown time.Duration
}

const (
	// DefaultSteps is the superstep window when Config leaves Steps zero:
	// long enough for the CPU profiler to accumulate samples, short enough
	// that the window stays inside one run.
	DefaultSteps = 4
	// DefaultSeconds is the wall-clock CPU window outside runs.
	DefaultSeconds = 1.0
	// DefaultCooldown spaces auto-captures per agent: a flapping verdict
	// must not turn the profiling plane into a load generator.
	DefaultCooldown = 2 * time.Minute
	// DefaultMutexFraction and DefaultBlockRate are the sampling rates
	// ApplyRates arms: 1-in-5 mutex contention events and one block event
	// per 100µs blocked — cheap enough for production, dense enough to
	// profile.
	DefaultMutexFraction = 5
	DefaultBlockRate     = 100 * 1000 // ns blocked per sample
)

// FromEnv builds a Config from the environment:
//
//	ELGA_PROFILE=1          enable the profiling plane
//	ELGA_PROFILE_DIR=path   artifact store root (default in-memory)
//	ELGA_PROFILE_RATES=1    arm mutex/block profiling rates
//	ELGA_PROFILE_AUTO=1     auto-capture on straggler/suspect verdicts
//	ELGA_PROFILE_STEPS=n    superstep window length (default 4)
//	ELGA_PROFILE_SECONDS=s  CPU wall fallback window (default 1)
//	ELGA_PROFILE_COOLDOWN=d per-agent auto-capture rate limit (default 2m)
func FromEnv() Config {
	c := Config{Steps: DefaultSteps, Seconds: DefaultSeconds, Cooldown: DefaultCooldown}
	if os.Getenv("ELGA_PROFILE") != "" {
		c.Enabled = true
	}
	c.Dir = os.Getenv("ELGA_PROFILE_DIR")
	if os.Getenv("ELGA_PROFILE_RATES") != "" {
		c.Rates = true
	}
	if os.Getenv("ELGA_PROFILE_AUTO") != "" {
		c.AutoCapture = true
	}
	if v := os.Getenv("ELGA_PROFILE_STEPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.Steps = n
		}
	}
	if v := os.Getenv("ELGA_PROFILE_SECONDS"); v != "" {
		if s, err := strconv.ParseFloat(v, 64); err == nil && s > 0 {
			c.Seconds = s
		}
	}
	if v := os.Getenv("ELGA_PROFILE_COOLDOWN"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			c.Cooldown = d
		}
	}
	return c
}

// withDefaults fills zero fields so a literal Config{Enabled: true}
// behaves like FromEnv with ELGA_PROFILE set.
func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = DefaultSteps
	}
	if c.Seconds <= 0 {
		c.Seconds = DefaultSeconds
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	return c
}

// Resolve returns *c default-filled, or FromEnv() when c is nil — the
// same "nil means environment" contract the other subsystem configs
// follow.
func Resolve(c *Config) Config {
	if c == nil {
		return FromEnv().withDefaults()
	}
	return c.withDefaults()
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Steps < 0 {
		return fmt.Errorf("profile: superstep window must be non-negative, got %d", c.Steps)
	}
	if c.Seconds < 0 {
		return fmt.Errorf("profile: seconds must be non-negative, got %v", c.Seconds)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("profile: cooldown must be non-negative, got %v", c.Cooldown)
	}
	return nil
}

// RegisterFlags registers the profiling flags on fs, defaulting from c
// (callers seed c with FromEnv so flags and env funnel into one Config).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Enabled, "profile", c.Enabled, "enable the cluster profiling plane (also ELGA_PROFILE=1)")
	fs.StringVar(&c.Dir, "profile-dir", c.Dir, "profile artifact store directory (default in-memory)")
	fs.BoolVar(&c.Rates, "profile-rates", c.Rates, "arm runtime mutex/block profiling rates (also ELGA_PROFILE_RATES=1)")
	fs.BoolVar(&c.AutoCapture, "profile-auto", c.AutoCapture, "auto-capture profiles on straggler/suspect verdicts (also ELGA_PROFILE_AUTO=1)")
	fs.IntVar(&c.Steps, "profile-steps", c.Steps, "default superstep window for scoped captures")
	fs.DurationVar(&c.Cooldown, "profile-cooldown", c.Cooldown, "per-agent auto-capture rate limit")
}

// ApplyRates arms runtime mutex/block profiling when c.Rates is set.
// Idempotent; called once per process at startup (every role in the
// in-process harness shares one runtime, so re-arming is harmless).
func (c *Config) ApplyRates() {
	if c == nil || !c.Rates {
		return
	}
	runtime.SetMutexProfileFraction(DefaultMutexFraction)
	runtime.SetBlockProfileRate(DefaultBlockRate)
}
