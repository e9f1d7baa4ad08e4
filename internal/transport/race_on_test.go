//go:build race

package transport

// raceEnabled reports whether the race detector is compiled in; alloc
// ceilings are skipped under -race because instrumentation inserts its
// own allocations.
const raceEnabled = true
