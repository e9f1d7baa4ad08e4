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
	"runtime"
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
	// cause. Off by default; rate-limited by AutoCooldown, one in-flight
	// capture per agent.
	AutoCapture bool
}

const (
	// AutoSteps is the superstep window of an auto-capture: long enough
	// for the CPU profiler to accumulate samples, short enough that the
	// window stays inside one run. Operators choose their own window
	// (elga profile -steps).
	AutoSteps = 4
	// DefaultSeconds is the wall-clock CPU window outside runs when a
	// request leaves its window zero.
	DefaultSeconds = 1.0
	// AutoCooldown spaces auto-captures per agent: a flapping verdict
	// must not turn the profiling plane into a load generator.
	AutoCooldown = 2 * time.Minute
	// DefaultMutexFraction and DefaultBlockRate are the sampling rates
	// ApplyRates arms: 1-in-5 mutex contention events and one block event
	// per 100µs blocked — cheap enough for production, dense enough to
	// profile.
	DefaultMutexFraction = 5
	DefaultBlockRate     = 100 * 1000 // ns blocked per sample
)

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
