// Package profile holds the one profiling switch a process has beyond the
// /debug/pprof endpoints internal/metrics serves: the runtime's mutex and
// block sampling rates, which are off by default and without which
// /debug/pprof/{mutex,block} carry no data. CPU, heap, goroutine and
// allocation profiles need no switch; fetch them from a process's
// -metrics-addr with go tool pprof.
package profile

import "runtime"

// Config tunes the process's runtime profiling. The zero value is off.
type Config struct {
	// Rates arms runtime mutex/block profiling
	// (runtime.SetMutexProfileFraction / runtime.SetBlockProfileRate).
	// Off by default: both add sampling overhead to every contended lock.
	Rates bool
}

// DefaultMutexFraction and DefaultBlockRate are the sampling rates
// ApplyRates arms: 1-in-5 mutex contention events and one block event per
// 100µs blocked — cheap enough for production, dense enough to profile.
const (
	DefaultMutexFraction = 5
	DefaultBlockRate     = 100 * 1000 // ns blocked per sample
)

// ApplyRates arms runtime mutex/block profiling when c.Rates is set. The
// rates are process-wide, so a process calls it once at startup; nil is
// off.
func (c *Config) ApplyRates() {
	if c == nil || !c.Rates {
		return
	}
	runtime.SetMutexProfileFraction(DefaultMutexFraction)
	runtime.SetBlockProfileRate(DefaultBlockRate)
}
