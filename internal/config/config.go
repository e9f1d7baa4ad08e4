// Package config holds the cluster-wide parameters every Participant must
// agree on for routing to be consistent: the ring hash function, the
// virtual agent count, the sketch dimensions and the replication policy.
// The harness and the CLI construct every entity from one Config, which is
// how real ElGA deployments share settings via compile-time CONFIG flags
// (artifact appendix).
package config

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"elga/internal/hashing"
	"elga/internal/sketch"
)

// Config is the shared cluster configuration.
type Config struct {
	// Hash is the ring hash function (paper default: Wang, §4.5).
	Hash hashing.Func
	// Virtual is the virtual-agent count per agent (paper default: 100).
	Virtual int
	// SketchWidth and SketchDepth size the count-min sketch. Scaled-down
	// experiments use small widths; the paper's production numbers are
	// 2^18 x 8.
	SketchWidth int
	SketchDepth int
	// ReplicationThreshold is the estimated degree above which a
	// vertex's edges split across agents. Zero disables splitting;
	// SplitByLoad (the default) derives it from the sketch total and the
	// member count (Threshold); any other value is an absolute threshold.
	ReplicationThreshold uint64
	// MaxReplicas caps the split factor.
	MaxReplicas int
	// RequestTimeout bounds every blocking request in the cluster.
	RequestTimeout time.Duration
	// HeartbeatInterval paces agent lease renewals to the coordinator.
	// Zero selects DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// LeaseTimeout is how long the coordinator waits after the last
	// heartbeat before declaring an agent dead and evicting it from the
	// view. Zero selects DefaultLeaseTimeout. It should be several
	// heartbeat intervals so a few lost heartbeats (they are deliberately
	// lossy) do not trigger a false eviction.
	LeaseTimeout time.Duration
}

// Failure-detector defaults: renew well inside the lease so eviction
// needs ~8 consecutive losses, and keep the lease short enough that a
// dead agent stalls a run for at most a few seconds.
const (
	DefaultHeartbeatInterval = 500 * time.Millisecond
	DefaultLeaseTimeout      = 4 * time.Second
)

// HeartbeatEvery returns the effective heartbeat interval.
func (c *Config) HeartbeatEvery() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return DefaultHeartbeatInterval
	}
	return c.HeartbeatInterval
}

// LeaseExpiry returns the effective lease timeout.
func (c *Config) LeaseExpiry() time.Duration {
	if c.LeaseTimeout <= 0 {
		return DefaultLeaseTimeout
	}
	return c.LeaseTimeout
}

// SplitByLoad is the ReplicationThreshold that splits a vertex by its share
// of a mean agent's load rather than at a fixed degree (Threshold).
const SplitByLoad = math.MaxUint64

// Default returns the laptop-scale default configuration: Wang hash, 100
// virtual agents, a 4096x4 sketch, and a replication threshold derived from
// the per-agent load.
func Default() Config {
	return Config{
		Hash:                 hashing.Wang64,
		Virtual:              100,
		SketchWidth:          4096,
		SketchDepth:          4,
		ReplicationThreshold: SplitByLoad,
		MaxReplicas:          8,
		RequestTimeout:       30 * time.Second,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Virtual <= 0 {
		return fmt.Errorf("config: virtual agents must be positive, got %d", c.Virtual)
	}
	if c.SketchWidth <= 0 || c.SketchDepth <= 0 {
		return fmt.Errorf("config: sketch dimensions %dx%d invalid", c.SketchWidth, c.SketchDepth)
	}
	if c.MaxReplicas < 1 {
		return fmt.Errorf("config: max replicas must be >= 1, got %d", c.MaxReplicas)
	}
	if c.RequestTimeout <= 0 {
		return fmt.Errorf("config: request timeout must be positive")
	}
	if c.HeartbeatInterval < 0 || c.LeaseTimeout < 0 {
		return fmt.Errorf("config: heartbeat interval and lease timeout must be non-negative")
	}
	if c.LeaseTimeout > 0 && c.LeaseTimeout < c.HeartbeatEvery() {
		return fmt.Errorf("config: lease timeout %v shorter than heartbeat interval %v", c.LeaseTimeout, c.HeartbeatEvery())
	}
	return nil
}

// NewSketch creates a sketch with the configured dimensions.
func (c *Config) NewSketch() *sketch.Sketch {
	return sketch.New(c.SketchWidth, c.SketchDepth)
}

// Threshold returns the replication threshold in force when the sketch
// holds total increments (edge copies) spread over members agents. An
// explicit ReplicationThreshold is returned as it is; SplitByLoad yields
// max(256, 2^⌊log2(total / members / 8)⌋): a vertex splits once its
// estimate outgrows an eighth of a mean agent's copies, and the threshold
// moves only when the total doubles.
func (c *Config) Threshold(total uint64, members int) uint64 {
	if c.ReplicationThreshold != SplitByLoad {
		return c.ReplicationThreshold
	}
	share := max(256, total/uint64(max(members, 1))/8)
	return 1 << (bits.Len64(share) - 1)
}

// Replicas returns the replica count for a degree estimate under this
// configuration, given the sketch total and the member count.
func (c *Config) Replicas(estimate, total uint64, members int) int {
	return sketch.Replicas(estimate, c.Threshold(total, members), c.MaxReplicas)
}
