// Package checkpoint implements durable incremental checkpoint/restore
// for agents and the coordinator. A snapshot is a manifest plus a set of
// content-addressed segments written to a pluggable Sink; segment
// payloads ride the same wire encoding as migration shipments, so disk
// and network never disagree about the format. The sealed-CSR segment is
// stable while the store's sealed runs are (between compactions and
// migration rounds) and dedups by content address, which is what makes the
// checkpoints incremental: a cadence tick in between rewrites only the
// delta tail and the vertex states.
//
// Durability enters the system through one surface: checkpoint.Config,
// threaded as cluster.Options.Durability / agent.Options.Checkpoint /
// directory.Options.Checkpoint, with env overrides (ELGA_CKPT*) and flag
// registration following the trace.Config pattern.
package checkpoint

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

// Config tunes durable checkpointing. The zero value is disabled.
type Config struct {
	// Enabled is the master switch. Disabled costs one predicted branch
	// at each trigger site.
	Enabled bool
	// Dir is the durable root directory of the local sink. Required
	// when Enabled.
	Dir string
	// Key is the participant's stable durable identity ("agent-0",
	// "coordinator"). It survives restarts that change live agent IDs;
	// a restarting process restores the manifest written under its Key.
	// The cluster harness assigns per-slot keys automatically.
	Key string
	// EverySteps checkpoints every N completed compute supersteps
	// (0 selects DefaultEverySteps). Batch boundaries and run completion
	// always checkpoint when Enabled.
	EverySteps int
	// Interval additionally checkpoints on a wall-clock cadence while
	// idle (0 disables the timer; supersteps and batch boundaries still
	// trigger).
	Interval time.Duration
}

// DefaultEverySteps is the superstep cadence when Config leaves
// EverySteps zero: frequent enough that a mid-run kill loses only a few
// supersteps of progress, rare enough that encoding stays off the
// critical path.
const DefaultEverySteps = 4

// FromEnv builds a Config from the environment:
//
//	ELGA_CKPT=1          enable durable checkpointing
//	ELGA_CKPT_DIR=path   sink root directory
//	ELGA_CKPT_KEY=key    stable durable identity
//	ELGA_CKPT_STEPS=n    superstep cadence (default 4)
//	ELGA_CKPT_INTERVAL=d wall-clock cadence (Go duration, default off)
func FromEnv() Config {
	c := Config{EverySteps: DefaultEverySteps}
	if os.Getenv("ELGA_CKPT") != "" {
		c.Enabled = true
	}
	c.Dir = os.Getenv("ELGA_CKPT_DIR")
	c.Key = os.Getenv("ELGA_CKPT_KEY")
	if v := os.Getenv("ELGA_CKPT_STEPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.EverySteps = n
		}
	}
	if v := os.Getenv("ELGA_CKPT_INTERVAL"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			c.Interval = d
		}
	}
	return c
}

// withDefaults fills zero fields so a literal Config{Enabled: true,
// Dir: ...} behaves like FromEnv with ELGA_CKPT set.
func (c Config) withDefaults() Config {
	if c.EverySteps <= 0 {
		c.EverySteps = DefaultEverySteps
	}
	if c.Interval < 0 {
		c.Interval = 0
	}
	return c
}

// Resolve returns *c default-filled, or FromEnv() when c is nil — the
// same "nil means environment" contract trace.Config follows.
func Resolve(c *Config) Config {
	if c == nil {
		return FromEnv().withDefaults()
	}
	return c.withDefaults()
}

// WithKey returns a copy of c with the durable identity set (harness
// helper for assigning per-slot keys from one shared Config).
func (c Config) WithKey(key string) Config {
	c.Key = key
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Dir == "" {
		return fmt.Errorf("checkpoint: enabled without a sink directory")
	}
	if c.EverySteps < 0 {
		return fmt.Errorf("checkpoint: superstep cadence must be non-negative, got %d", c.EverySteps)
	}
	if c.Interval < 0 {
		return fmt.Errorf("checkpoint: interval must be non-negative, got %v", c.Interval)
	}
	return nil
}

// RegisterFlags registers the durability flags on fs, defaulting from c
// (callers seed c with FromEnv so flags and env funnel into one Config).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Enabled, "durable", c.Enabled, "enable durable checkpointing (also ELGA_CKPT=1)")
	fs.StringVar(&c.Dir, "ckpt-dir", c.Dir, "checkpoint sink directory (required with -durable)")
	fs.StringVar(&c.Key, "ckpt-key", c.Key, "stable durable identity for restore-on-restart (default derived per role)")
	fs.IntVar(&c.EverySteps, "ckpt-steps", c.EverySteps, "checkpoint every N compute supersteps")
	fs.DurationVar(&c.Interval, "ckpt-interval", c.Interval, "additional wall-clock checkpoint cadence (0 = off)")
}
