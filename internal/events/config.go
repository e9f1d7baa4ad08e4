package events

import (
	"os"
	"strconv"
)

// Config is the single switchboard for the structured event journal,
// following the trace.Config contract: every layer takes a *Config (nil
// means FromEnv) and honours the same fields.
//
//	Enabled  master switch for event journalling (per-participant rings,
//	         shipping in reports, the coordinator timeline).
//	Ring     capacity of each participant's bounded journal ring.
//	Timeline capacity of the coordinator's merged cluster timeline (the
//	         durable view that rides the coordinator checkpoint).
type Config struct {
	Enabled  bool
	Ring     int
	Timeline int
}

// DefaultRing is the per-participant journal capacity when Config leaves
// Ring zero. Control-plane events are rare (joins, evictions, plans,
// checkpoints — not per-vertex traffic), so a few hundred records cover
// minutes of cluster history at tens of bytes each.
const DefaultRing = 256

// DefaultTimeline is the coordinator's merged-timeline capacity when
// Config leaves Timeline zero.
const DefaultTimeline = 1024

// FromEnv builds a Config from the environment:
//
//	ELGA_EVENTS=1          enable the event journal
//	ELGA_EVENTS_RING=n     per-participant ring capacity (default 256)
//	ELGA_EVENTS_TIMELINE=n coordinator timeline capacity (default 1024)
func FromEnv() Config {
	c := Config{Ring: DefaultRing, Timeline: DefaultTimeline}
	if os.Getenv("ELGA_EVENTS") != "" {
		c.Enabled = true
	}
	if v := os.Getenv("ELGA_EVENTS_RING"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.Ring = n
		}
	}
	if v := os.Getenv("ELGA_EVENTS_TIMELINE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.Timeline = n
		}
	}
	return c
}

// withDefaults fills zero fields so a literal Config{Enabled: true}
// behaves like FromEnv with ELGA_EVENTS set.
func (c Config) withDefaults() Config {
	if c.Ring <= 0 {
		c.Ring = DefaultRing
	}
	if c.Timeline <= 0 {
		c.Timeline = DefaultTimeline
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
