package trace

import (
	"os"
	"strconv"
)

// Config is the single switchboard for tracing. Every layer takes a
// *Config (nil means FromEnv) and honours the same fields:
//
//	Enabled        master switch for distributed tracing (Tracer spans,
//	               wire context propagation, span shipping).
//	Sample         fraction of runs whose spans are exported to the
//	               collector; the flight recorder records regardless.
//	FlightRecorder capacity of the per-participant flight ring.
type Config struct {
	Enabled        bool
	Sample         float64
	FlightRecorder int
}

// DefaultFlightRecorder is the flight-ring capacity when Config leaves
// FlightRecorder zero: enough to hold several supersteps of spans per
// participant at a few hundred bytes total.
const DefaultFlightRecorder = 256

// FromEnv builds a Config from the environment:
//
//	ELGA_TRACE=1         enable tracing
//	ELGA_TRACE_SAMPLE=f  sample fraction in [0,1] (default 1)
//	ELGA_TRACE_FLIGHT=n  flight-recorder capacity (default 256)
func FromEnv() Config {
	c := Config{Enabled: os.Getenv("ELGA_TRACE") != "", Sample: 1, FlightRecorder: DefaultFlightRecorder}
	if v := os.Getenv("ELGA_TRACE_SAMPLE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			c.Sample = f
		}
	}
	if v := os.Getenv("ELGA_TRACE_FLIGHT"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.FlightRecorder = n
		}
	}
	return c
}

// withDefaults fills zero fields so a literal Config{Enabled: true}
// behaves like FromEnv with ELGA_TRACE set.
func (c Config) withDefaults() Config {
	if c.FlightRecorder <= 0 {
		c.FlightRecorder = DefaultFlightRecorder
	}
	if c.Sample < 0 {
		c.Sample = 0
	}
	if c.Sample > 1 {
		c.Sample = 1
	}
	return c
}

// Resolve returns *c, or FromEnv() when c is nil — the contract every
// Options struct follows so "nil means environment" is uniform.
func Resolve(c *Config) Config {
	if c == nil {
		return FromEnv()
	}
	return *c
}
